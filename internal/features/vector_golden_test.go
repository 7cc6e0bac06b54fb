package features

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/corpus"
	"repro/internal/flow"
	"repro/internal/js/parser"
)

var update = flag.Bool("update", false, "rewrite testdata/extract_full_golden.json from the current extractor")

const extractFullGoldenPath = "testdata/extract_full_golden.json"

// edgeFixtures are inputs the corpus generator never produces but the
// hand-picked block must handle exactly: the text statistics' empty-source
// and line-ending edges, and both sides of prop_vars_fetched_from_arrays.
var edgeFixtures = []corpus.File{
	{Name: "edge/empty", Source: ""},
	{Name: "edge/no-trailing-newline", Source: "var a = 1;\nvar b = a + 2"},
	{Name: "edge/crlf", Source: "var a = 1;\r\nif (a) {\r\n  a = [a, 2][0];\r\n}\r\n"},
	{Name: "edge/comment-only", Source: "// a line comment\n/* a block\n   comment */\n"},
	{Name: "edge/non-ascii", Source: "var café = \"naïve — ünïcode ✓\";\nvar π = 3.14;\nconsole.log(café + π, '日本語');\n"},
	{Name: "edge/array-fetch", Source: "var table = [\"a\", \"b\", \"c\"];\nvar dict = {x: 1};\nvar i = 1;\nfunction pick(k) { return table[k] + dict[\"x\"]; }\nconsole.log(pick(i), table[0]);\n"},
	{Name: "edge/no-bindings", Source: "console.log(\"hi\");\nwindow.x = [1, 2][0];\n"},
}

// goldenLayouts are the vector layouts the full-vector golden pins.
var goldenLayouts = []Options{
	{NGramDims: 256},
	{NGramDims: 256, RuleFeatures: true},
	{NGramDims: 1024},
	{NGramDims: 1024, RuleFeatures: true},
}

func layoutKey(o Options) string {
	return fmt.Sprintf("dims=%d rules=%v", o.NGramDims, o.RuleFeatures)
}

// goldenVector is one fixture's record. The hand-picked and rule blocks do
// not depend on the n-gram dimension, so each is stored once by dimension
// name and every layout's vector is checked against it; SHA256 pins each
// layout's whole vector, n-gram buckets included.
type goldenVector struct {
	Name       string             `json:"name"`
	HandPicked map[string]float64 `json:"hand_picked"`
	Rules      map[string]float64 `json:"rules"`
	SHA256     map[string]string  `json:"sha256"`
}

// fixtureName tells a transformed fixture apart from the base it shares a
// file name with.
func fixtureName(f corpus.File) string {
	name := f.Name
	for _, tech := range f.Techniques {
		name += " +" + tech.String()
	}
	return name
}

// vectorDigest is the SHA-256 of the vector's float64 bits, little-endian.
func vectorDigest(v Vector) string {
	buf := make([]byte, 0, 8*len(v))
	for _, x := range v {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// recordBlock stores the named dimensions [lo, len(names)) of vec into
// *block, or, when another layout already stored them, reports any that
// differ: a block that depends on the layout is a bug in itself.
func recordBlock(t *testing.T, fixture, layout string, block *map[string]float64, names []string, vec Vector, lo int) {
	t.Helper()
	if *block == nil {
		*block = make(map[string]float64, len(names)-lo)
		for i := lo; i < len(names); i++ {
			(*block)[names[i]] = vec[i]
		}
		return
	}
	for i := lo; i < len(names); i++ {
		if prev, ok := (*block)[names[i]]; !ok || math.Float64bits(prev) != math.Float64bits(vec[i]) {
			t.Errorf("%s (%s): %s = %v, but %v under another layout", fixture, layout, names[i], vec[i], prev)
		}
	}
}

// TestExtractFullGolden pins every dimension of ExtractFull's output against
// vectors recorded from a known-good extractor, so a refactor of the
// hand-picked block, the stats walk or the text statistics cannot move a
// trained model's inputs. Regenerate only for an intended layout change:
//
//	go test ./internal/features -run TestExtractFullGolden -update
func TestExtractFullGolden(t *testing.T) {
	files := append(goldenFixtures(t), edgeFixtures...)
	got := make([]goldenVector, len(files))
	fs := flow.NewSession()
	for i, f := range files {
		g := &got[i]
		g.Name, g.SHA256 = fixtureName(f), map[string]string{}
		for _, opts := range goldenLayouts {
			res, err := parser.ParseNoTokens(f.Source)
			if err != nil {
				t.Fatalf("%s: parse: %v", g.Name, err)
			}
			e := NewExtractor(opts)
			vec := extractParsed(e, fs, f.Source, res)
			names, key := e.Names(), layoutKey(opts)
			ruleLo := opts.NGramDims + numHandPicked
			recordBlock(t, g.Name, key, &g.HandPicked, names[:ruleLo], vec, opts.NGramDims)
			if opts.RuleFeatures {
				recordBlock(t, g.Name, key, &g.Rules, names, vec, ruleLo)
			}
			g.SHA256[key] = vectorDigest(vec)
		}
	}

	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(extractFullGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(extractFullGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d fixtures)", extractFullGoldenPath, len(got))
		return
	}

	data, err := os.ReadFile(extractFullGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want []goldenVector
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("decode %s: %v", extractFullGoldenPath, err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d fixtures, extractor produced %d", len(want), len(got))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Name != w.Name {
			t.Fatalf("fixture %d is %q, golden has %q", i, g.Name, w.Name)
		}
		for _, opts := range goldenLayouts {
			key := layoutKey(opts)
			if g.SHA256[key] == w.SHA256[key] {
				continue
			}
			// Name every moved dimension; only the n-gram block is pinned
			// by digest alone (and bucket by bucket against the reference
			// hash by TestNGramGoldenVectors).
			names := NewExtractor(opts).Names()
			moved := 0
			for d := opts.NGramDims; d < len(names); d++ {
				block := w.HandPicked
				if d >= opts.NGramDims+numHandPicked {
					block = w.Rules
				}
				if want, ok := block[names[d]]; !ok || math.Float64bits(want) != math.Float64bits(g.valueOf(names[d])) {
					t.Errorf("%s (%s): dimension %d (%s) = %v, golden %v",
						g.Name, key, d, names[d], g.valueOf(names[d]), want)
					moved++
				}
			}
			if moved == 0 {
				t.Errorf("%s (%s): vector digest %s, golden %s: an n-gram bucket moved",
					g.Name, key, g.SHA256[key], w.SHA256[key])
			}
		}
	}
}

// valueOf looks a hand-picked or rule dimension up by name.
func (g goldenVector) valueOf(name string) float64 {
	if v, ok := g.HandPicked[name]; ok {
		return v
	}
	return g.Rules[name]
}
