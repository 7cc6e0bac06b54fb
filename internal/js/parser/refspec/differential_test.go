// Differential golden test: the arena parser must produce bit-identical
// results to the refspec snapshot of the pre-arena parser. The corpus
// generator plus every monitored transformation technique feeds both paths,
// and the trees, node byte ranges, token streams, and comments are compared
// under the zero-copy token contract. Nodes carry no line or column; that
// ast.Lines resolves their ranges exactly as the lexer counts is
// TestLinesMatchLexer's job (internal/js/parser).
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
	"repro/internal/js/walker"
	"repro/internal/transform"
)

// bs is a single backslash. The JavaScript escape sequences under test are
// built by concatenation so they reach the lexer as escape sequences instead
// of being decoded by the Go compiler.
const bs = "\x5C"

// escapeSeeds are inputs that force the zero-copy lexer off its fast path:
// escaped identifiers and private names, escaped and astral string contents,
// line continuations, CR/CRLF in templates, raw U+2028, and invalid UTF-8.
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
	walker.Walk(prog, func(n ast.Node, _ int) bool {
		out = append(out, nodeRecord{n.NodeKind(), n.Range()})
		return true
	})
	return out
}

// compareToken checks one token pair under the zero-copy contract: positions
// and values must match exactly, the arena-path Lexeme must be the literal
// source slice, and StringValue must carry the decoded name the reference
// kept in its (decoded) Lexeme.
func compareToken(t *testing.T, name string, i int, src string, ref refspec.Token, got lexer.Token) {
	t.Helper()
	if int(ref.Kind) != int(got.Kind) || ref.Start != got.Start || ref.End != got.End ||
		ref.NewlineBefore != got.NewlineBefore || ref.NumberValue != got.NumberValue ||
		ref.RegexPattern != got.RegexPattern || ref.RegexFlags != got.RegexFlags {
		t.Fatalf("%s: token %d differs:\nreference %+v\narena     %+v", name, i, ref, got)
	}
	if want := src[got.Start.Offset:got.End.Offset]; got.Lexeme != want {
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

func compareParses(t *testing.T, name, src string) {
	t.Helper()
	ref, refErr := refspec.Parse(src)
	got, gotErr := parser.Parse(src)
	if (refErr == nil) != (gotErr == nil) {
		t.Fatalf("%s: reference error %v, arena error %v", name, refErr, gotErr)
	}
	if refErr != nil {
		return
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
	for i := range ref.Tokens {
		compareToken(t, name, i, src, ref.Tokens[i], got.Tokens[i])
	}
	if len(ref.Comments) != len(got.Comments) {
		t.Fatalf("%s: %d comments, want %d", name, len(got.Comments), len(ref.Comments))
	}
	for i := range ref.Comments {
		r, g := ref.Comments[i], got.Comments[i]
		if r.Span != g.Span || r.Text != g.Text || r.Block != g.Block {
			t.Fatalf("%s: comment %d = %+v, want %+v", name, i, g, r)
		}
	}
}

// TestArenaParserMatchesReference drives generated corpus files plus one
// output per monitored transformation technique through the reference parser
// and the arena parser and requires identical results.
func TestArenaParserMatchesReference(t *testing.T) {
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
	for i, f := range files {
		compareParses(t, fmt.Sprintf("%s#%d", f.Name, i), f.Source)
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
