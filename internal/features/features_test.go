package features

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/analysis"
	"repro/internal/flow"
	"repro/internal/js/parser"
	"repro/internal/transform"
)

// extractParsed runs the scan pipeline's steps after the parse, in the
// scanner's order: the flow graph on fs, the indicator rules when the layout
// carries rule features, then ExtractFull.
func extractParsed(e *Extractor, fs *flow.Session, src string, res *parser.Result) Vector {
	g := e.FlowSession(fs, res)
	var diags []analysis.Diagnostic
	if e.Options().RuleFeatures {
		diags = analysis.AnalyzeParsed(src, res, g)
	}
	return e.ExtractFull(src, res, g, diags)
}

// extractSource parses src and computes its feature vector.
func extractSource(e *Extractor, src string) (Vector, error) {
	res, err := parser.ParseNoTokens(src)
	if err != nil {
		return nil, err
	}
	return extractParsed(e, flow.NewSession(), src, res), nil
}

func extract(t *testing.T, src string) Vector {
	t.Helper()
	e := NewExtractor(Options{NGramDims: 256})
	vec, err := extractSource(e, src)
	if err != nil {
		t.Fatalf("extract: %v", err)
	}
	return vec
}

func feature(t *testing.T, e *Extractor, vec Vector, name string) float64 {
	t.Helper()
	for i, n := range e.Names() {
		if n == name {
			return vec[i]
		}
	}
	t.Fatalf("feature %q not found", name)
	return 0
}

const regularSrc = `
// A small regular module.
function sum(values) {
  var total = 0;
  for (var i = 0; i < values.length; i++) {
    total += values[i];
  }
  return total;
}
var nums = [1, 2, 3, 4];
console.log(sum(nums));
`

func TestExtractShapes(t *testing.T) {
	e := NewExtractor(Options{NGramDims: 256})
	vec, err := extractSource(e, regularSrc)
	if err != nil {
		t.Fatal(err)
	}
	if len(vec) != e.Dim() {
		t.Fatalf("dim = %d, want %d", len(vec), e.Dim())
	}
	if len(e.Names()) != e.Dim() {
		t.Fatalf("names = %d, want %d", len(e.Names()), e.Dim())
	}
	for i, v := range vec {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("feature %s is %v", e.Names()[i], v)
		}
	}
}

func TestNGramsNormalized(t *testing.T) {
	e := NewExtractor(Options{NGramDims: 128})
	vec, err := extractSource(e, regularSrc)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range vec[:128] {
		if v < 0 {
			t.Fatal("negative n-gram frequency")
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("n-gram frequencies sum to %v, want 1", sum)
	}
}

func TestExtractError(t *testing.T) {
	e := NewExtractor(Options{})
	if _, err := extractSource(e, "var = ;;;"); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestMinifiedSignals(t *testing.T) {
	e := NewExtractor(Options{NGramDims: 256})
	rng := rand.New(rand.NewSource(1))
	min, err := transform.Transform(regularSrc, rng, transform.MinifySimple)
	if err != nil {
		t.Fatal(err)
	}
	regVec := extract(t, regularSrc)
	minVec := extract(t, min)

	if rw := feature(t, e, regVec, "whitespace_ratio"); rw <= feature(t, e, minVec, "whitespace_ratio") {
		t.Fatal("regular code must have a higher whitespace ratio than minified")
	}
	if rc := feature(t, e, regVec, "avg_chars_per_line"); rc >= feature(t, e, minVec, "avg_chars_per_line") {
		t.Fatal("minified code must have longer lines")
	}
	if ri := feature(t, e, regVec, "avg_identifier_length"); ri <= feature(t, e, minVec, "avg_identifier_length") {
		t.Fatal("minified identifiers must be shorter")
	}
	if feature(t, e, regVec, "comment_char_ratio") <= 0 {
		t.Fatal("regular source has comments")
	}
	if feature(t, e, minVec, "comment_char_ratio") != 0 {
		t.Fatal("minified source must have no comments")
	}
}

func TestIdentifierObfuscationSignals(t *testing.T) {
	e := NewExtractor(Options{NGramDims: 256})
	rng := rand.New(rand.NewSource(2))
	obf, err := transform.Transform(regularSrc, rng, transform.IdentifierObfuscation)
	if err != nil {
		t.Fatal(err)
	}
	obfVec := extract(t, obf)
	regVec := extract(t, regularSrc)
	if feature(t, e, obfVec, "hex_identifier_ratio") <= feature(t, e, regVec, "hex_identifier_ratio") {
		t.Fatal("identifier obfuscation must raise the hex-identifier ratio")
	}
	if feature(t, e, obfVec, "hex_identifier_ratio") < 0.3 {
		t.Fatalf("hex ratio = %v, want most identifiers hex",
			feature(t, e, obfVec, "hex_identifier_ratio"))
	}
}

func TestJSFuckSignals(t *testing.T) {
	e := NewExtractor(Options{NGramDims: 256})
	rng := rand.New(rand.NewSource(3))
	fuck, err := transform.Transform(`console.log("hi");`, rng, transform.NoAlphanumeric)
	if err != nil {
		t.Fatal(err)
	}
	vec := extract(t, fuck)
	if feature(t, e, vec, "alnum_char_ratio") != 0 {
		t.Fatal("JSFuck output has no alphanumeric characters")
	}
	if feature(t, e, vec, "jsfuck_char_ratio") != 1 {
		t.Fatal("JSFuck output is 100% bracket characters")
	}
}

func TestGlobalArraySignals(t *testing.T) {
	e := NewExtractor(Options{NGramDims: 256})
	rng := rand.New(rand.NewSource(4))
	src := regularSrc + `
var labels = ["alpha", "beta", "gamma"];
console.log(labels[1], "direct string", "another one");
`
	out, err := transform.Transform(src, rng, transform.GlobalArray)
	if err != nil {
		t.Fatal(err)
	}
	vec := extract(t, out)
	if feature(t, e, vec, "largest_string_array") <= 0 {
		t.Fatal("global array technique must leave a big string array")
	}
	if feature(t, e, vec, "indexed_accessor_call_ratio") <= 0 {
		t.Fatal("global array technique calls the accessor with numeric args")
	}
}

func TestFlatteningSignals(t *testing.T) {
	e := NewExtractor(Options{NGramDims: 256})
	rng := rand.New(rand.NewSource(5))
	out, err := transform.Transform(regularSrc+"\nsum([1]);\nsum([2]);\nsum([3]);\n", rng, transform.ControlFlowFlattening)
	if err != nil {
		t.Fatal(err)
	}
	vec := extract(t, out)
	if feature(t, e, vec, "while_true_switch") != 1 {
		t.Fatal("flattening must leave a while(true){switch} dispatcher")
	}
	if feature(t, e, vec, "pipe_split_strings") != 1 {
		t.Fatal("flattening must leave a pipe-split order string")
	}
}

func TestDebugProtectionSignals(t *testing.T) {
	e := NewExtractor(Options{NGramDims: 256})
	rng := rand.New(rand.NewSource(6))
	out, err := transform.Transform(regularSrc, rng, transform.DebugProtection)
	if err != nil {
		t.Fatal(err)
	}
	vec := extract(t, out)
	if feature(t, e, vec, "debugger_string_count") <= 0 {
		t.Fatal("debug protection leaves \"debugger\" strings")
	}
	if feature(t, e, vec, "has_set_interval_timeout") != 1 {
		t.Fatal("debug protection registers an interval")
	}
}

func TestDataFlowFeature(t *testing.T) {
	e := NewExtractor(Options{NGramDims: 256})
	src := `
var table = ["a", "b", "c", "d"];
function pick(i) { return table[i]; }
console.log(pick(1), pick(2));
` + strings.Repeat("// pad\n", 10)
	vec := extract(t, src)
	if feature(t, e, vec, "prop_vars_fetched_from_arrays") <= 0 {
		t.Fatal("table is fetched via computed access; data-flow feature must fire")
	}
	if feature(t, e, vec, "data_edges_per_node") <= 0 {
		t.Fatal("data-flow edges must exist")
	}
}

func TestFeatureVectorBounded(t *testing.T) {
	// Property: every hand-picked feature stays within [0, 50] for arbitrary
	// generated regular files (ratios are mostly within [0,1]; a few
	// averages may exceed 1 but must stay bounded).
	e := NewExtractor(Options{NGramDims: 64})
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src := genSource(rng)
		vec, err := extractSource(e, src)
		if err != nil {
			return true // generator may emit files our filter would drop
		}
		for _, v := range vec {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || v > 50 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// genSource builds small pseudo-random but syntactically valid sources.
func genSource(rng *rand.Rand) string {
	var sb strings.Builder
	n := 1 + rng.Intn(20)
	for i := 0; i < n; i++ {
		switch rng.Intn(4) {
		case 0:
			sb.WriteString("var v")
			sb.WriteString(string(rune('a' + rng.Intn(26))))
			sb.WriteString(" = ")
			sb.WriteString(strings.Repeat("1 + ", rng.Intn(5)))
			sb.WriteString("2;\n")
		case 1:
			sb.WriteString("function f")
			sb.WriteString(string(rune('a' + rng.Intn(26))))
			sb.WriteString("(x) { return x ? x * 2 : 0; }\n")
		case 2:
			sb.WriteString("if (Math.random() > 0.5) { console.log(\"hi\"); }\n")
		default:
			sb.WriteString("for (var i = 0; i < 3; i++) { work(i); }\n")
		}
	}
	return sb.String()
}
