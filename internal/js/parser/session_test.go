// External test package: the poisoning tests compare full Results through
// the printer and ast.Inspect, which an in-package test could also do, but the
// external package proves the exported Session surface alone is enough.
package parser_test

import (
	"reflect"
	"testing"

	"repro/internal/js/ast"
	"repro/internal/js/parser"
	"repro/internal/js/printer"
	"repro/internal/obs"
)

// poisonA leans on every piece of pooled state: comments, the arrow-head
// memo table, template rescans, private names, and a deep token stream.
const poisonA = `// comment A
const f = (a, b) => a + b;
let t = ` + "`x${f(1, 2)}y`" + `;
class K { #p = 1; get v() { return this.#p + f(3, 4); } }
`

// poisonB is structurally different from poisonA so any leaked state shows.
const poisonB = `/* comment B */
function g(n) { return n * 2; }
var arr = [1, 2, 3].map((x) => x + 1);
`

func streamOf(prog *ast.Program) []ast.Kind {
	var out []ast.Kind
	ast.Inspect(prog, func(n ast.Node) bool {
		out = append(out, n.NodeKind())
		return true
	})
	return out
}

// assertSameResult requires got to be bit-identical to want: same printed
// program, same node-kind stream and spans, same tokens, comments, and
// counts.
func assertSameResult(t *testing.T, want, got *parser.Result) {
	t.Helper()
	if w, g := printer.Compact(want.Program), printer.Compact(got.Program); w != g {
		t.Fatalf("printed output differs:\nfresh:  %s\nreused: %s", w, g)
	}
	if w, g := streamOf(want.Program), streamOf(got.Program); !reflect.DeepEqual(w, g) {
		t.Fatalf("node streams differ:\nfresh:  %v\nreused: %v", w, g)
	}
	if want.NumTokens != got.NumTokens {
		t.Fatalf("NumTokens = %d, want %d", got.NumTokens, want.NumTokens)
	}
	if !reflect.DeepEqual(want.Tokens, got.Tokens) {
		t.Fatalf("token streams differ:\nfresh:  %v\nreused: %v", want.Tokens, got.Tokens)
	}
	if !reflect.DeepEqual(want.Comments, got.Comments) {
		t.Fatalf("comments differ:\nfresh:  %v\nreused: %v", want.Comments, got.Comments)
	}
}

// TestSessionReuseNotPoisoned scans file A and then file B through one
// pooled session and requires B's result to be bit-identical to a fresh
// parse: nothing from A — tokens, comments, memo entries, lexer state — may
// leak into B.
func TestSessionReuseNotPoisoned(t *testing.T) {
	fresh, err := parser.NewSession().Parse(poisonB)
	if err != nil {
		t.Fatalf("fresh parse: %v", err)
	}
	s := parser.NewSession()
	if _, err := s.Parse(poisonA); err != nil {
		t.Fatalf("parse A: %v", err)
	}
	reused, err := s.Parse(poisonB)
	if err != nil {
		t.Fatalf("reused parse B: %v", err)
	}
	assertSameResult(t, fresh, reused)
}

// TestSessionReuseAfterError: a failed parse must not poison the session
// either — reset happens on entry, not on the success path.
func TestSessionReuseAfterError(t *testing.T) {
	s := parser.NewSession()
	if _, err := s.Parse("(a, b)\n@"); err == nil {
		t.Fatal("malformed input must fail to parse")
	}
	reused, err := s.Parse(poisonB)
	if err != nil {
		t.Fatalf("reused parse B: %v", err)
	}
	fresh, err := parser.NewSession().Parse(poisonB)
	if err != nil {
		t.Fatalf("fresh parse: %v", err)
	}
	assertSameResult(t, fresh, reused)
}

// TestSessionReuseAcrossCollectModes: flipping between ParseNoTokens and
// Parse on one session must not leave a stale token slice behind.
func TestSessionReuseAcrossCollectModes(t *testing.T) {
	s := parser.NewSession()
	if _, err := s.ParseNoTokens(poisonA); err != nil {
		t.Fatalf("ParseNoTokens A: %v", err)
	}
	reused, err := s.Parse(poisonB)
	if err != nil {
		t.Fatalf("reused parse B: %v", err)
	}
	fresh, err := parser.NewSession().Parse(poisonB)
	if err != nil {
		t.Fatalf("fresh parse: %v", err)
	}
	assertSameResult(t, fresh, reused)
	if len(reused.Tokens) == 0 {
		t.Fatal("Parse after ParseNoTokens returned no tokens")
	}
	noTok, err := s.ParseNoTokens(poisonB)
	if err != nil {
		t.Fatalf("ParseNoTokens B: %v", err)
	}
	if noTok.Tokens != nil {
		t.Fatal("ParseNoTokens after Parse leaked a token slice")
	}
	if noTok.NumTokens != fresh.NumTokens {
		t.Fatalf("NumTokens = %d, want %d", noTok.NumTokens, fresh.NumTokens)
	}
}

// TestResultsOutliveSession: results from consecutive parses on one session
// must not alias pooled buffers — A's result stays intact after B is parsed.
func TestResultsOutliveSession(t *testing.T) {
	s := parser.NewSession()
	resA, err := s.Parse(poisonA)
	if err != nil {
		t.Fatalf("parse A: %v", err)
	}
	printedA := printer.Compact(resA.Program)
	tokensA := append([]string(nil), tokenLexemes(resA)...)
	if _, err := s.Parse(poisonB); err != nil {
		t.Fatalf("parse B: %v", err)
	}
	if got := printer.Compact(resA.Program); got != printedA {
		t.Fatalf("A's tree changed after parsing B:\nbefore: %s\nafter:  %s", printedA, got)
	}
	if got := tokenLexemes(resA); !reflect.DeepEqual(got, tokensA) {
		t.Fatal("A's token slice was clobbered by parsing B")
	}
}

func tokenLexemes(res *parser.Result) []string {
	out := make([]string, len(res.Tokens))
	for i, tok := range res.Tokens {
		out[i] = tok.Lexeme
	}
	return out
}

// TestParseMetricsRecordedOnFailure pins the fix for the dropped
// lex.tokens_rescanned counter: arrow-head backtracking happens on failed
// parses too, and the re-scan count must land in the registry even when the
// parse errors out.
func TestParseMetricsRecordedOnFailure(t *testing.T) {
	reg := obs.NewRegistry()
	prev := obs.Swap(reg)
	defer obs.Swap(prev)
	// "(a, b)" is re-scanned after the arrow-head attempt fails; the "@"
	// then kills the parse.
	if _, err := parser.Parse("(a, b)\n@"); err == nil {
		t.Fatal("malformed input must fail to parse")
	}
	if got := reg.Counter("parse.errors").Value(); got != 1 {
		t.Fatalf("parse.errors = %d, want 1", got)
	}
	if got := reg.Counter("lex.tokens_rescanned").Value(); got == 0 {
		t.Fatal("failed parse with backtracking recorded no lex.tokens_rescanned")
	}
	if got := reg.Counter("parse.files").Value(); got != 1 {
		t.Fatalf("parse.files = %d, want 1", got)
	}
}

// TestParseMetricNamesInManifest keeps the parser's obs recordings in
// lockstep with the metrics manifest: every name parse() can record must be
// a known metric, so a rename in either place fails here (the full-tree
// sync lives in internal/obs's manifest test).
func TestParseMetricNamesInManifest(t *testing.T) {
	for _, name := range []string{
		"parse.duration",
		"parse.files",
		"parse.bytes",
		"parse.file_bytes",
		"parse.tokens",
		"parse.errors",
		"lex.tokens",
		"lex.comments",
		"lex.tokens_rescanned",
	} {
		if !obs.KnownMetric(name) {
			t.Errorf("parser records %q but the manifest does not know it", name)
		}
	}
}
