package corpus

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/js/parser"
	"repro/internal/transform"
)

func TestGenerateRegularParses(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 60; i++ {
		src := GenerateRegular(rng)
		if _, err := parser.ParseProgram(src); err != nil {
			t.Fatalf("generated file %d does not parse: %v\n%s", i, err, src)
		}
	}
}

func TestGenerateRegularVariety(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	seen := make(map[string]bool)
	for i := 0; i < 30; i++ {
		src := GenerateRegular(rng)
		if seen[src] {
			t.Fatal("generator repeated an identical file")
		}
		seen[src] = true
	}
}

func TestGenerateRegularDeterministic(t *testing.T) {
	a := GenerateRegular(rand.New(rand.NewSource(7)))
	b := GenerateRegular(rand.New(rand.NewSource(7)))
	if a != b {
		t.Fatal("generator is not deterministic under a fixed seed")
	}
}

func TestGenerateMaliciousParses(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, fam := range []MaliciousFamily{FamilyExploitKit, FamilyDropper, FamilyLoader} {
		for i := 0; i < 20; i++ {
			src := GenerateMalicious(rng, fam)
			if _, err := parser.ParseProgram(src); err != nil {
				t.Fatalf("malicious family %d sample %d does not parse: %v\n%s", fam, i, err, src)
			}
		}
	}
}

func TestFilter(t *testing.T) {
	tests := []struct {
		name string
		src  string
		want FilterReason
	}{
		{"too small", "var x = 1;", FilterTooSmall},
		{"no code", `var x = 1; ` + strings.Repeat("// padding comment line\n", 40), FilterNoCode},
		{"unparsable", strings.Repeat("]", 600), FilterUnparsable},
		{"accepted", "function main() { return 42; }\n" + strings.Repeat("// pad\n", 80), FilterAccepted},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Filter(tt.src); got != tt.want {
				t.Fatalf("Filter = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestFilterJSONRejected(t *testing.T) {
	// A JSON-like file: parses as an expression statement but has no
	// conditional/function/call node.
	json := `({"key": "value", "list": [1, 2, 3], "pad": "` + strings.Repeat("x", 600) + `"});`
	if got := Filter(json); got != FilterNoCode {
		t.Fatalf("JSON-like file: Filter = %v, want FilterNoCode", got)
	}
}

func TestRegularSetRespectsFilters(t *testing.T) {
	files := RegularSet(25, rand.New(rand.NewSource(4)))
	if len(files) != 25 {
		t.Fatalf("got %d files", len(files))
	}
	for _, f := range files {
		if len(f.Source) < MinSize {
			t.Fatalf("%s is %d bytes, below the corpus minimum", f.Name, len(f.Source))
		}
		if f.Transformed() {
			t.Fatalf("%s must be regular", f.Name)
		}
	}
}

func TestTransformPool(t *testing.T) {
	base := RegularSet(3, rand.New(rand.NewSource(5)))
	pool, err := TransformPool(base, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	if len(pool) != len(transform.Techniques) {
		t.Fatalf("pool has %d techniques, want %d", len(pool), len(transform.Techniques))
	}
	for tech, files := range pool {
		if len(files) != len(base) {
			t.Fatalf("%s pool has %d files, want %d", tech, len(files), len(base))
		}
		for _, f := range files {
			if len(f.Techniques) != 1 || f.Techniques[0] != tech {
				t.Fatalf("%s: wrong labels %v", f.Name, f.Techniques)
			}
			if _, err := parser.ParseProgram(f.Source); err != nil {
				t.Fatalf("%s does not parse: %v", f.Name, err)
			}
		}
	}
}

// TestTransformPoolParsesOnTrainingSeeds builds the training and held-out
// pools exactly as core.Train does for 90 base scripts (random stream seeded
// with seed+1, 60/40 split) on the seeds where dead code injection once drew
// a reserved word as an identifier, and parses every file.
func TestTransformPoolParsesOnTrainingSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("transforms 900 files per seed")
	}
	for _, seed := range []int64{6, 34, 40, 67, 114} {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed + 1))
			regular := RegularSet(90, rng)
			cut := len(regular) * 6 / 10
			for _, bases := range [][]File{regular[:cut], regular[cut:]} {
				pool, err := TransformPool(bases, rng)
				if err != nil {
					t.Fatal(err)
				}
				for _, tech := range transform.Techniques {
					for _, f := range pool[tech] {
						if _, err := parser.ParseNoTokens(f.Source); err != nil {
							t.Errorf("%s does not parse: %v", f.Name, err)
						}
					}
				}
			}
		})
	}
}

func TestFileLabelHelpers(t *testing.T) {
	f := File{Techniques: []transform.Technique{transform.MinifySimple, transform.GlobalArray}}
	if !f.Transformed() || !f.Minified() || !f.Obfuscated() {
		t.Fatal("label helpers disagree with technique set")
	}
	if !f.Has(transform.GlobalArray) || f.Has(transform.DebugProtection) {
		t.Fatal("Has() broken")
	}
	var reg File
	if reg.Transformed() || reg.Minified() || reg.Obfuscated() {
		t.Fatal("empty file must be regular")
	}
}

func TestCanonicalOrderPutsNoAlphaLast(t *testing.T) {
	got := canonicalOrder([]transform.Technique{
		transform.NoAlphanumeric, transform.MinifySimple, transform.StringObfuscation,
	})
	if got[len(got)-1] != transform.NoAlphanumeric {
		t.Fatalf("order = %v", got)
	}
	if got[0] != transform.StringObfuscation {
		t.Fatalf("order = %v", got)
	}
}

func TestRandomComboProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for size := 1; size <= 7; size++ {
		for i := 0; i < 50; i++ {
			combo := RandomCombo(rng, size)
			if len(combo) != size {
				t.Fatalf("combo size = %d, want %d", len(combo), size)
			}
			seen := make(map[transform.Technique]bool)
			for _, c := range combo {
				if seen[c] {
					t.Fatalf("duplicate technique in combo %v", combo)
				}
				seen[c] = true
				if size > 1 && c == transform.NoAlphanumeric {
					t.Fatal("no-alphanumeric must not appear in multi-technique combos")
				}
			}
		}
	}
}

func TestTechniqueMixDrawWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	counts := make(map[transform.Technique]int)
	const n = 4000
	for i := 0; i < n; i++ {
		set := AlexaMix.Draw(rng)
		counts[set[0]]++
	}
	simple := float64(counts[transform.MinifySimple]) / n
	adv := float64(counts[transform.MinifyAdvanced]) / n
	if simple < 0.45 || simple > 0.55 {
		t.Fatalf("minification simple rate = %.3f, want ~0.50", simple)
	}
	if adv < 0.39 || adv > 0.49 {
		t.Fatalf("minification advanced rate = %.3f, want ~0.44", adv)
	}
}

func TestBuildRankedCounts(t *testing.T) {
	files, err := BuildRanked(AlexaConfig(30), rand.New(rand.NewSource(10)))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 30 {
		t.Fatalf("too few files: %d", len(files))
	}
	transformed := 0
	for _, f := range files {
		if f.Origin != "alexa" {
			t.Fatalf("origin = %q", f.Origin)
		}
		if f.Rank < 1 || f.Rank > 30 {
			t.Fatalf("rank = %d", f.Rank)
		}
		if f.Transformed() {
			transformed++
		}
	}
	rate := float64(transformed) / float64(len(files))
	if rate < 0.5 || rate > 0.9 {
		t.Fatalf("transformed rate = %.3f, want ~0.69", rate)
	}
}

func TestBuildNpmInverseGradient(t *testing.T) {
	files, err := BuildNpm(NpmConfig(200), rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	topTransformed, topTotal := 0, 0
	bottomTransformed, bottomTotal := 0, 0
	for _, f := range files {
		if f.Rank <= 100 {
			topTotal++
			if f.Transformed() {
				topTransformed++
			}
		} else {
			bottomTotal++
			if f.Transformed() {
				bottomTransformed++
			}
		}
	}
	topRate := float64(topTransformed) / float64(topTotal)
	bottomRate := float64(bottomTransformed) / float64(bottomTotal)
	if topRate >= bottomRate {
		t.Fatalf("top packages must be less transformed: top=%.3f bottom=%.3f", topRate, bottomRate)
	}
}

func TestBuildMalicious(t *testing.T) {
	cfgs := DefaultMaliciousConfigs(1)
	for _, cfg := range cfgs {
		files, err := BuildMalicious(cfg, rand.New(rand.NewSource(12)))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) != cfg.Count {
			t.Fatalf("%s: %d files, want %d", cfg.Source, len(files), cfg.Count)
		}
		transformed := 0
		for _, f := range files {
			if f.Origin != cfg.Source {
				t.Fatalf("origin = %q", f.Origin)
			}
			if f.Transformed() {
				transformed++
			}
			if _, err := parser.ParseProgram(f.Source); err != nil {
				t.Fatalf("%s does not parse: %v", f.Name, err)
			}
		}
		rate := float64(transformed) / float64(len(files))
		if rate < cfg.TransformedRate-0.22 || rate > cfg.TransformedRate+0.22 {
			t.Fatalf("%s transformed rate = %.3f, want ~%.3f", cfg.Source, rate, cfg.TransformedRate)
		}
	}
}

func TestMonthLabel(t *testing.T) {
	tests := map[int]string{0: "2015-05", 7: "2015-12", 8: "2016-01", 64: "2020-09"}
	for i, want := range tests {
		if got := MonthLabel(i); got != want {
			t.Fatalf("MonthLabel(%d) = %q, want %q", i, got, want)
		}
	}
}

func TestBuildLongitudinalTrend(t *testing.T) {
	files, err := BuildLongitudinal(LongitudinalConfig{ScriptsPerMonth: 12, Origin: "alexa"},
		rand.New(rand.NewSource(13)))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 12*LongitudinalMonths {
		t.Fatalf("got %d files", len(files))
	}
	early, late := 0, 0
	earlyN, lateN := 0, 0
	for _, f := range files {
		if f.Month < 20 {
			earlyN++
			if f.Transformed() {
				early++
			}
		}
		if f.Month >= 45 {
			lateN++
			if f.Transformed() {
				late++
			}
		}
	}
	if float64(early)/float64(earlyN) >= float64(late)/float64(lateN) {
		t.Fatalf("Alexa transformed rate must rise over time: early=%.3f late=%.3f",
			float64(early)/float64(earlyN), float64(late)/float64(lateN))
	}
}

func TestAllTechniquesOnAllFlavors(t *testing.T) {
	// Stress: every technique must produce reparseable output on files from
	// every generator flavor (the seeds below cover all flavors).
	rng := rand.New(rand.NewSource(20))
	files := RegularSet(16, rng)
	for _, f := range files {
		for _, tech := range transform.Techniques {
			out, err := Apply(f, rng, tech)
			if err != nil {
				t.Fatalf("%s on %s: %v", tech, f.Name, err)
			}
			if _, err := parser.ParseProgram(out.Source); err != nil {
				snippet := out.Source
				if len(snippet) > 300 {
					snippet = snippet[:300]
				}
				t.Fatalf("%s on %s does not reparse: %v\n%s", tech, f.Name, err, snippet)
			}
		}
	}
}

func TestLoadDir(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	good := GenerateRegular(rand.New(rand.NewSource(30)))
	for len(good) < MinSize {
		good += GenerateRegular(rand.New(rand.NewSource(int64(len(good)))))
	}
	write("good.js", good)
	write("tiny.js", "var x = 1;")
	write("broken.js", strings.Repeat("}{", 400))
	write("readme.txt", "not javascript")
	if err := os.MkdirAll(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "sub", "nested.js"), []byte(good), 0o644); err != nil {
		t.Fatal(err)
	}

	files, stats, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Accepted != 2 || len(files) != 2 {
		t.Fatalf("stats = %+v, files = %d", stats, len(files))
	}
	if stats.TooSmall != 1 || stats.Unparsable != 1 || stats.Skipped != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	names := map[string]bool{}
	for _, f := range files {
		names[filepath.ToSlash(f.Name)] = true
	}
	if !names["good.js"] || !names["sub/nested.js"] {
		t.Fatalf("names = %v", names)
	}
	if !strings.Contains(stats.String(), "accepted 2") {
		t.Fatalf("stats string = %q", stats)
	}
}
