package transformdetect

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/js/parser"
	"repro/internal/ml"
)

// One small shared analyzer for the facade tests.
var (
	facadeOnce sync.Once
	facade     *Analyzer
	facadeErr  error
)

func getAnalyzer(t *testing.T) *Analyzer {
	t.Helper()
	if testing.Short() {
		t.Skip("skipping facade training in -short mode")
	}
	facadeOnce.Do(func() {
		facade, _, facadeErr = Train(TrainConfig{
			NumRegular: 90,
			Options: core.Options{
				Features: features.Options{NGramDims: 512},
				Forest: ml.ForestOptions{
					NumTrees: 20,
					Parallel: true,
					Tree:     ml.TreeOptions{MTry: 96},
				},
				Seed: 11,
			},
		})
	})
	if facadeErr != nil {
		t.Fatalf("train: %v", facadeErr)
	}
	return facade
}

const facadeSrc = `
// Session helper utilities.
function readSession(storage, key) {
  var raw = storage.getItem(key);
  if (!raw) { return null; }
  try {
    return JSON.parse(raw);
  } catch (err) {
    return null;
  }
}
function writeSession(storage, key, value) {
  storage.setItem(key, JSON.stringify(value));
  return true;
}
var session = readSession(window.localStorage, "session-key");
if (!session) {
  session = {started: Date.now(), visits: 1};
} else {
  session.visits += 1;
}
writeSession(window.localStorage, "session-key", session);
`

func TestAnalyzeRegular(t *testing.T) {
	a := getAnalyzer(t)
	res, err := a.AnalyzeSource(facadeSrc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Transformed {
		t.Fatalf("regular script misclassified: %+v", res)
	}
	if res.Techniques != nil {
		t.Fatal("regular scripts carry no technique report")
	}
}

func TestAnalyzeTransformed(t *testing.T) {
	a := getAnalyzer(t)
	min, err := Transform(facadeSrc, 5, MinifySimple)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.AnalyzeSource(min)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Transformed {
		t.Fatalf("minified script not flagged: %+v", res)
	}
	if len(res.Techniques) == 0 {
		t.Fatal("transformed script must carry a technique report")
	}
	if res.Techniques[0].Technique != MinifySimple && res.Techniques[0].Technique != MinifyAdvanced {
		t.Fatalf("top technique = %v, want minification", res.Techniques[0].Technique)
	}
}

// TestAnalyzerRejectsSwappedLevels: a level 2 detector passed as level 1
// would read technique probabilities as Regular/Minified/Obfuscated, so every
// call must fail instead of answering.
func TestAnalyzerRejectsSwappedLevels(t *testing.T) {
	a := getAnalyzer(t)
	swapped := NewAnalyzer(a.Level2(), a.Level1())
	if res, err := swapped.AnalyzeSource(facadeSrc); err == nil {
		t.Fatalf("swapped detectors analyzed without an error: %+v", res)
	}
	if _, _, err := swapped.ExplainSource(facadeSrc); err == nil {
		t.Fatal("swapped detectors explained without an error")
	}
}

// TestAnalyzerMatchesScanBatch: the public API is one more path to the batch
// engine's answer. Each call costs exactly one parse, and its probabilities,
// technique ranking and diagnostics equal a jsdetect-configured ScanBatch
// over the same detectors bit for bit, as does its error on a file that
// does not parse.
func TestAnalyzerMatchesScanBatch(t *testing.T) {
	a := getAnalyzer(t)
	min, err := Transform(facadeSrc, 5, MinifySimple)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ name, src string }{
		{"regular", facadeSrc},
		{"transformed", min},
		{"unparseable", "function ( {{{"},
	}
	for _, explain := range []bool{false, true} {
		sc, err := core.NewScanner(a.Level1(), a.Level2(), core.ScanOptions{Explain: explain})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cases {
			label := fmt.Sprintf("%s (explain=%v)", c.name, explain)
			before := parser.Parses()
			var res *Result
			var diags []Diagnostic
			if explain {
				res, diags, err = a.ExplainSource(c.src)
			} else {
				res, err = a.AnalyzeSource(c.src)
			}
			if n := parser.Parses() - before; n != 1 {
				t.Errorf("%s: %d parses, want 1", label, n)
			}
			out, _ := sc.ScanBatch([]core.Input{{Source: c.src}})
			want := out[0]
			if want.Err != nil {
				if err == nil || err.Error() != want.Err.Error() {
					t.Errorf("%s: error %v, ScanBatch %v", label, err, want.Err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			l1 := core.Level1Result{Regular: res.Regular, Minified: res.Minified, Obfuscated: res.Obfuscated}
			if l1 != want.Level1 || res.Transformed != want.Level1.IsTransformed() {
				t.Errorf("%s: level 1 %+v (transformed %v), ScanBatch %+v", label, l1, res.Transformed, want.Level1)
			}
			var ranked, top []TechniquePrediction
			if want.Level2 != nil {
				ranked, top = want.Level2.Ranked, want.Level2.TopK(4, core.DefaultThreshold)
			}
			if c.name == "transformed" && ranked == nil {
				t.Fatalf("%s: not flagged as transformed, so level 2 went unchecked", label)
			}
			if !reflect.DeepEqual(res.AllTechniques, ranked) || !reflect.DeepEqual(res.Techniques, top) {
				t.Errorf("%s: techniques %+v / %+v, ScanBatch %+v / %+v", label, res.AllTechniques, res.Techniques, ranked, top)
			}
			if !reflect.DeepEqual(diags, want.Diagnostics) {
				t.Errorf("%s: diagnostics %+v, ScanBatch %+v", label, diags, want.Diagnostics)
			}
		}
	}
}

func TestAnalyzeHTML(t *testing.T) {
	a := getAnalyzer(t)
	html := "<html><body><script>" + facadeSrc + "</script></body></html>"
	res, err := a.AnalyzeHTML(html)
	if err != nil {
		t.Fatal(err)
	}
	if res.Transformed {
		t.Fatalf("regular inline script misclassified: %+v", res)
	}
	if _, err := a.AnalyzeHTML("<html><body>no scripts</body></html>"); err == nil {
		t.Fatal("expected error for script-free HTML")
	}
}

func TestTransformFacade(t *testing.T) {
	out, err := Transform(facadeSrc, 9, StringObfuscation, GlobalArray)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, `"session-key"`) {
		t.Fatal("strings must be hidden")
	}
	// Determinism.
	again, err := Transform(facadeSrc, 9, StringObfuscation, GlobalArray)
	if err != nil {
		t.Fatal(err)
	}
	if out != again {
		t.Fatal("facade Transform must be deterministic per seed")
	}
}

func TestDeobfuscateFacade(t *testing.T) {
	obf, err := Transform(facadeSrc, 13, StringObfuscation)
	if err != nil {
		t.Fatal(err)
	}
	clear, rep, err := Deobfuscate(obf)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total() == 0 {
		t.Fatal("deobfuscation applied no rewrites")
	}
	if !strings.Contains(clear, "session-key") {
		t.Fatalf("string not recovered:\n%s", clear)
	}
}

func TestExtractScriptsFacade(t *testing.T) {
	scripts := ExtractScripts(`<script>var a = 1;</script><script src="x.js"></script>`)
	if len(scripts) != 2 {
		t.Fatalf("scripts = %d", len(scripts))
	}
}

func TestFilterFacade(t *testing.T) {
	if Filter("tiny") == 1 { // FilterAccepted
		t.Fatal("tiny input must not pass the corpus filter")
	}
	big := facadeSrc + facadeSrc
	if got := Filter(big); got != 1 {
		t.Fatalf("Filter = %v, want accepted", got)
	}
}

func TestTechniquesList(t *testing.T) {
	techs := Techniques()
	if len(techs) != 10 {
		t.Fatalf("monitored techniques = %d, want 10", len(techs))
	}
	// The returned slice is a copy; mutating it must not corrupt state.
	techs[0] = Packer
	if Techniques()[0] == Packer {
		t.Fatal("Techniques() must return a copy")
	}
}
