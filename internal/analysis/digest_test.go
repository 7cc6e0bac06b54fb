package analysis

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/transform"
)

var update = flag.Bool("update", false, "rewrite testdata/diagnostics_digest.json from the current engine")

const digestPath = "testdata/diagnostics_digest.json"

// digestTail triggers several rules, so every edge input reports
// diagnostics whose lines and columns sit after its odd line terminators.
const digestTail = `var _0x12ab = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"];
function _0x34cd(_0x56ef) { return _0x12ab[_0x56ef - 2]; }
eval(atob("aGVsbG8gd29ybGQhIQ=="));
if (74 === 74 + 13) { _0x34cd(9); }
setInterval(function () { debugger; }, 50);`

// digestEdges are sources whose line and column bookkeeping the corpus never
// exercises: every line terminator the lexer counts (LF, CR, CRLF, U+2028,
// U+2029), the last two also inside strings, comments and templates, bytes
// that are not ASCII before a finding, a missing final newline, and nothing.
var digestEdges = []corpus.File{
	{Name: "edge/empty", Source: ""},
	{Name: "edge/no-trailing-newline", Source: digestTail},
	{Name: "edge/crlf", Source: "var a = 1;\r\n// note\r\n" + strings.ReplaceAll(digestTail, "\n", "\r\n")},
	{Name: "edge/lone-cr", Source: "var a = 1;\r/* x\r y */\r" + strings.ReplaceAll(digestTail, "\n", "\r")},
	{Name: "edge/ls-ps-whitespace", Source: "var a = 1;\u2028var b = 2;\u2029" + digestTail},
	{Name: "edge/ls-ps-string", Source: "var s = \"a\u2028b\u2029c\";\n" + digestTail},
	{Name: "edge/ls-ps-comment", Source: "// a\u2028var hidden = 1;\n/* b\u2029c */\n" + digestTail},
	{Name: "edge/ls-ps-template", Source: "var t = `a\u2028b${1}\u2029c`;\n" + digestTail},
	{Name: "edge/non-ascii-identifiers", Source: "var café = \"naïve ✓\"; var π = 3.14;\nvar _0xé1 = café + π; " + digestTail},
	{Name: "edge/non-ascii-string-before-finding", Source: "var s = \"日本語\"; eval(atob(\"aGk=\"));\n" + digestTail},
}

// digestInputs is the regular corpus, each base under all ten transforms,
// every rule fixture, and the edge inputs.
func digestInputs(t *testing.T) []corpus.File {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	bases := corpus.RegularSet(12, rng)
	files := append([]corpus.File(nil), bases...)
	for _, b := range bases {
		for _, tech := range transform.Techniques {
			tf, err := corpus.Apply(b, rng, tech)
			if err != nil {
				t.Fatalf("apply %s to %s: %v", tech, b.Name, err)
			}
			tf.Name += " +" + tech.String()
			files = append(files, tf)
		}
	}
	for _, f := range ruleFixtures {
		files = append(files, corpus.File{Name: "rule/" + f.rule, Source: f.positive})
	}
	return append(files, digestEdges...)
}

// digestRecord is one input's pinned diagnostics.
type digestRecord struct {
	Name        string `json:"name"`
	Diagnostics int    `json:"diagnostics"`
	SHA256      string `json:"sha256"`
}

// TestDiagnosticsDigest pins the JSON diagnostics (rules, spans with lines
// and columns, messages, snippets and evidence) of every input against
// digests recorded from a known-good engine, so a change to how nodes carry
// positions cannot move a reported line, column or snippet. Regenerate only
// for an intended change to what the rules report:
//
//	go test ./internal/analysis -run TestDiagnosticsDigest -update
func TestDiagnosticsDigest(t *testing.T) {
	files := digestInputs(t)
	got := make([]digestRecord, len(files))
	for i, f := range files {
		diags, err := Analyze(f.Source)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		data, err := json.Marshal(diags)
		if err != nil {
			t.Fatalf("%s: marshal: %v", f.Name, err)
		}
		sum := sha256.Sum256(data)
		got[i] = digestRecord{Name: f.Name, Diagnostics: len(diags), SHA256: hex.EncodeToString(sum[:])}
	}

	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(digestPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d inputs)", digestPath, len(got))
		return
	}

	data, err := os.ReadFile(digestPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want []digestRecord
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("decode %s: %v", digestPath, err)
	}
	if len(want) != len(got) {
		t.Fatalf("digest has %d inputs, engine produced %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("input %d: got %+v, digest has %+v", i, got[i], want[i])
		}
	}
}
