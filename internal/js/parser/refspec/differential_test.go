// Differential golden test: the arena parser must produce bit-identical
// results to the refspec snapshot of the pre-arena parser. The corpus
// generator plus every monitored transformation technique feeds both paths,
// whole and cut short, and the trees, node byte ranges, token streams,
// comments and the text of every rejection (its line and column included)
// are compared under the zero-copy token contract. The arena path carries
// byte offsets only, while the reference lexer still counts lines and
// columns byte by byte: ast.Lines must resolve every token and comment
// boundary to the position the reference counted, and the parser's error to
// the reference's.
package refspec_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/corpus"
	"repro/internal/js/ast"
	"repro/internal/js/lexer"
	"repro/internal/js/parser"
	"repro/internal/js/parser/refspec"
	"repro/internal/js/printer"
	"repro/internal/transform"
)

// bs is a single backslash. The JavaScript escape sequences under test are
// built by concatenation so they reach the lexer as escape sequences instead
// of being decoded by the Go compiler.
const bs = "\x5C"

// escapeSeeds are inputs on the edges of the zero-copy lexer's fast path:
// escaped identifiers and private names, escaped and astral string contents,
// line continuations, CR/CRLF in templates and invalid UTF-8 (all slow
// path), and raw U+2028/U+2029 in a string and a template (fast path).
var escapeSeeds = []string{
	"var " + bs + "u0041bc = 1; " + bs + "u0041bc += 2;",
	"var x = 'a" + bs + "u0041" + bs + "x42" + bs + "n';",
	"var y = \"" + bs + "u{1F600}\" + \"plain\";",
	"let s = 'a" + bs + "\r\nb';",
	"let t = `a\r\nb${1}c\rd`;",
	"let u = 'x" + string(rune(0x2028)) + "y';",
	"let v = `x" + string(rune(0x2029)) + "y`;",
	"class A { #x = 1; #" + bs + "u0079; m() { return this.#x + this.#" + bs + "u0079; } }",
	"`" + bs + "u0041${x}" + bs + "x42`",
	"var w = 'a\xFFb';",
	"if (" + bs + "u0069f) {}", // escaped keyword spelling: both paths must reject it the same way
	"x = '" + bs + "u{\n41}';", // the error is raised past a line terminator inside the escape
	"var " + bs + "u{\r\n41",
}

// lineEdges are sources whose line bookkeeping the corpus never exercises:
// every terminator the lexer counts (LF, CR, CRLF, U+2028, U+2029) between
// tokens and inside strings (as line continuations), comments and
// templates; 0xE2-led runes that are not terminators; invalid UTF-8; a
// missing final newline; trailing trivia; HTML comments; and nothing at all.
var lineEdges = []string{
	"",
	"\n",
	"var a = 1",
	"var a = 1;\n\n  // tail",
	"var a = 1;\r\nif (a) {\r\n  a = [a, 2][0];\r\n}\r\n",
	"var a = 1;\r/* x\r y */\rb = a /\r2;\r",
	"var a = 1;\r\n\r/* x\r\n\n y */\n\r",
	"var a = 1;\u2028var b = 2;\u2029c = a + b;",
	"var s = 'a\\\u2028b\\\u2029c' + 'd\\\r\ne\\\rf\\\ng';\nx = s;",
	"var s = \"a\u2028b\u2029c\";\nx = s;",
	"// a\u2028var hidden = 1;\n/* b\u2029c */\nx = 1;",
	"var t = `a\u2028b${1}\u2029c${`d\r\ne${2}`}\rf`;\nx = t;",
	"var t = `a\nb${ {k: 1}.k }c\r\nd`; y = /re—[x]/g.test(t);",
	"var dash = \"—✓€\"; // — comment\nvar q = dash;",
	"var café = \"naïve ✓\"; var π = 3.14;\nvar _0xé1 = café + π;",
	"var w = 'a\xFFb\xE2\x80';\nvar v = 2;",
	"<!-- html comment\nx = 1;\n--> close comment\ny = 2;",
}

// corpusInputs is the generated corpus the differential runs on: three
// regular files plus the first under every transform, then six more regular
// files each under all ten transforms.
func corpusInputs(t *testing.T) []corpus.File {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	files := corpus.RegularSet(3, rng)
	base := files[0]
	for _, tech := range transform.Techniques {
		out, err := corpus.Apply(base, rng, tech)
		if err != nil {
			t.Fatalf("apply %s: %v", tech, err)
		}
		files = append(files, out)
	}
	rng = rand.New(rand.NewSource(31))
	for _, b := range corpus.RegularSet(6, rng) {
		files = append(files, b)
		for _, tech := range transform.Techniques {
			out, err := corpus.Apply(b, rng, tech)
			if err != nil {
				t.Fatalf("apply %s to %s: %v", tech, b.Name, err)
			}
			files = append(files, out)
		}
	}
	return files
}

// nodeRecord is one step of a pre-order walk: the dynamic kind and the byte
// range, which together pin the tree shape and every position the parser
// assigned.
type nodeRecord struct {
	kind ast.Kind
	rng  ast.Range
}

func stream(prog *ast.Program) []nodeRecord {
	var out []nodeRecord
	ast.Inspect(prog, func(n ast.Node) bool {
		out = append(out, nodeRecord{n.NodeKind(), n.Range()})
		return true
	})
	return out
}

// compareToken checks one token pair under the zero-copy contract: offsets
// and values must match exactly, lines must resolve both offsets to the
// reference's line and column, the arena-path Lexeme must be the literal
// source slice, and StringValue must carry the decoded name the reference
// kept in its (decoded) Lexeme.
func compareToken(t *testing.T, name string, i int, src string, lines *ast.Lines, ref refspec.Token, got lexer.Token) {
	t.Helper()
	if int(ref.Kind) != int(got.Kind) || ref.Start.Offset != got.Start || ref.End.Offset != got.End ||
		ref.NewlineBefore != got.NewlineBefore || ref.NumberValue != got.NumberValue ||
		ref.RegexPattern != got.RegexPattern || ref.RegexFlags != got.RegexFlags {
		t.Fatalf("%s: token %d differs:\nreference %+v\narena     %+v", name, i, ref, got)
	}
	if start, end := lines.Pos(got.Start), lines.Pos(got.End); start != ref.Start || end != ref.End {
		t.Fatalf("%s: token %d %q resolves to %+v-%+v, reference counted %+v-%+v", name, i, got.Lexeme, start, end, ref.Start, ref.End)
	}
	if want := src[got.Start:got.End]; got.Lexeme != want {
		t.Fatalf("%s: token %d Lexeme = %q, want the source slice %q", name, i, got.Lexeme, want)
	}
	switch got.Kind {
	case lexer.Ident, lexer.Keyword:
		// The reference decoded escapes into Lexeme; the arena path keeps
		// the raw spelling there and decodes into StringValue.
		if got.StringValue != ref.Lexeme {
			t.Fatalf("%s: token %d decoded name = %q, want %q", name, i, got.StringValue, ref.Lexeme)
		}
	case lexer.PrivateIdent:
		// Both spellings carry the leading '#'.
		if got.StringValue != ref.Lexeme {
			t.Fatalf("%s: token %d private name = %q, want %q", name, i, got.StringValue, ref.Lexeme)
		}
	default:
		if got.StringValue != ref.StringValue {
			t.Fatalf("%s: token %d StringValue = %q, want %q", name, i, got.StringValue, ref.StringValue)
		}
	}
}

// compareParses parses src with both parsers and requires identical results,
// or identical error text when both reject it. It reports whether src was
// rejected.
func compareParses(t *testing.T, name, src string) (rejected bool) {
	t.Helper()
	ref, refErr := refspec.Parse(src)
	got, gotErr := parser.Parse(src)
	if (refErr == nil) != (gotErr == nil) {
		t.Fatalf("%s: reference error %v, arena error %v", name, refErr, gotErr)
	}
	if refErr != nil {
		if refErr.Error() != gotErr.Error() {
			t.Fatalf("%s: error differs\nreference: %v\narena:     %v", name, refErr, gotErr)
		}
		return true
	}
	if want, have := printer.Compact(ref.Program), printer.Compact(got.Program); want != have {
		t.Fatalf("%s: printed output differs\nreference: %s\narena:     %s", name, want, have)
	}
	refStream, gotStream := stream(ref.Program), stream(got.Program)
	if len(refStream) != len(gotStream) {
		t.Fatalf("%s: node count %d, want %d", name, len(gotStream), len(refStream))
	}
	for i := range refStream {
		if refStream[i] != gotStream[i] {
			t.Fatalf("%s: node %d = %v/%v, want %v/%v", name, i,
				gotStream[i].kind, gotStream[i].rng, refStream[i].kind, refStream[i].rng)
		}
	}
	if ref.NumTokens != got.NumTokens {
		t.Fatalf("%s: NumTokens = %d, want %d", name, got.NumTokens, ref.NumTokens)
	}
	if len(ref.Tokens) != len(got.Tokens) {
		t.Fatalf("%s: %d tokens, want %d", name, len(got.Tokens), len(ref.Tokens))
	}
	lines := ast.NewLines(src)
	for i := range ref.Tokens {
		compareToken(t, name, i, src, lines, ref.Tokens[i], got.Tokens[i])
	}
	if len(ref.Comments) != len(got.Comments) {
		t.Fatalf("%s: %d comments, want %d", name, len(got.Comments), len(ref.Comments))
	}
	for i := range ref.Comments {
		r, g := ref.Comments[i], got.Comments[i]
		if lines.Span(g.Range) != r.Span || r.Text != g.Text || r.Block != g.Block {
			t.Fatalf("%s: comment %d = %+v, want %+v", name, i, g, r)
		}
	}
	return false
}

// TestArenaParserMatchesReference drives generated corpus files and their
// transformed outputs through the reference parser and the arena parser and
// requires identical results.
func TestArenaParserMatchesReference(t *testing.T) {
	for i, f := range corpusInputs(t) {
		compareParses(t, fmt.Sprintf("%s#%d", f.Name, i), f.Source)
	}
}

// TestArenaParserMatchesReferenceOnTruncations cuts every corpus input at
// k/24 of its length. Most cuts are rejected — an unterminated string,
// template, comment or block, or a rune split in two — so this is where the
// error text, with its line and column, is compared. Inputs over 64 KB are
// left out: they are the seven no-alphanumeric outputs (~400 KB each, 97% of
// the corpus bytes, one line of []()!+), whose cuts would multiply the
// test's time by thirty and all end in the same few errors on line 1.
func TestArenaParserMatchesReferenceOnTruncations(t *testing.T) {
	const cuts, maxLen = 24, 64 << 10
	inputs, rejected := 0, 0
	for i, f := range corpusInputs(t) {
		if len(f.Source) > maxLen {
			continue
		}
		for k := 1; k < cuts; k++ {
			n := len(f.Source) * k / cuts
			if compareParses(t, fmt.Sprintf("%s#%d cut at %d", f.Name, i, n), f.Source[:n]) {
				rejected++
			}
			inputs++
		}
	}
	t.Logf("%d of %d truncated inputs rejected", rejected, inputs)
	if rejected == 0 {
		t.Fatal("no truncated input was rejected; the error text was never compared")
	}
}

// TestArenaParserMatchesReferenceOnLineEdges covers the line terminators
// and non-ASCII bytes the generated corpus rarely contains. Every prefix of
// each edge input is parsed too, so an error at the end of the source is
// resolved after each kind of terminator and inside each multi-byte rune.
func TestArenaParserMatchesReferenceOnLineEdges(t *testing.T) {
	for i, src := range lineEdges {
		for n := 0; n <= len(src); n++ {
			compareParses(t, fmt.Sprintf("line edge %d cut at %d", i, n), src[:n])
		}
	}
}

// TestArenaParserMatchesReferenceOnEscapes covers the lexer's slow paths,
// which the generated corpus rarely reaches.
func TestArenaParserMatchesReferenceOnEscapes(t *testing.T) {
	exercised := false
	for i, src := range escapeSeeds {
		compareParses(t, fmt.Sprintf("escape seed %d", i), src)
		if res, err := parser.Parse(src); err == nil {
			for _, tok := range res.Tokens {
				if tok.Kind == lexer.Ident && tok.Lexeme != tok.StringValue {
					exercised = true
				}
			}
		}
	}
	if !exercised {
		t.Fatal("no seed produced an identifier whose raw and decoded spellings differ; the slow path was not exercised")
	}
}
