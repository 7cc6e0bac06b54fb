package lexer_test

import (
	"math/rand"
	"testing"

	"repro/internal/corpus"
	"repro/internal/js/ast"
	"repro/internal/js/lexer"
	"repro/internal/transform"
)

// linesEdges are sources whose line bookkeeping the corpus never exercises:
// every terminator the lexer counts (LF, CR, CRLF, U+2028, U+2029) between
// tokens and inside strings (as line continuations), comments and
// templates; 0xE2-led runes that are not terminators; invalid UTF-8; a
// missing final newline; trailing trivia; and nothing at all.
var linesEdges = []string{
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

// linesInputs is the regular corpus, each base under all ten transforms,
// and the edge inputs.
func linesInputs(t *testing.T) []string {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	bases := corpus.RegularSet(6, rng)
	var out []string
	for _, b := range bases {
		out = append(out, b.Source)
		for _, tech := range transform.Techniques {
			tf, err := corpus.Apply(b, rng, tech)
			if err != nil {
				t.Fatalf("apply %s to %s: %v", tech, b.Name, err)
			}
			out = append(out, tf.Source)
		}
	}
	return append(out, linesEdges...)
}

// lexPositions lexes src to the end the way the parser drives the lexer,
// following template substitutions, and returns the start and end of every
// token and comment, then the EOF token's start (offset len(src)).
func lexPositions(t *testing.T, src string) []ast.Pos {
	t.Helper()
	l := lexer.New(src)
	var out []ast.Pos
	var open []int // brace depth at each open template substitution
	depth := 0
	for {
		tok, err := l.Next()
		if err != nil {
			t.Fatalf("lex %.40q: %v", src, err)
		}
		if tok.Kind == lexer.EOF {
			if int(tok.Start.Offset) != len(src) {
				t.Fatalf("lex %.40q: EOF at offset %d, want %d", src, tok.Start.Offset, len(src))
			}
			out = append(out, tok.Start)
			break
		}
		switch {
		case tok.Kind == lexer.TemplateHead:
			open = append(open, depth)
		case tok.IsPunct("{"):
			depth++
		case tok.IsPunct("}"):
			if k := len(open); k > 0 && open[k-1] == depth {
				if tok, err = l.RescanTemplateContinue(tok); err != nil {
					t.Fatalf("lex %.40q: %v", src, err)
				}
				if tok.Kind == lexer.TemplateTail {
					open = open[:k-1]
				}
				break
			}
			depth--
		}
		out = append(out, tok.Start, tok.End)
	}
	for _, c := range l.Comments() {
		out = append(out, c.Span.Start, c.Span.End)
	}
	return out
}

// TestLinesMatchLexer pins ast.Lines to the lexer: resolving the offset of
// every token and comment boundary, and of the end of the source, must give
// the line and column the lexer counted while scanning. Nodes carry only
// byte ranges, so this is what keeps a reported diagnostic's lines and
// columns what they were when nodes carried both.
func TestLinesMatchLexer(t *testing.T) {
	checked := 0
	for _, src := range linesInputs(t) {
		lines := ast.NewLines(src)
		for _, want := range lexPositions(t, src) {
			if got := lines.Pos(want.Offset); got != want {
				t.Fatalf("source %.60q: Lines.Pos(%d) = %+v, lexer counted %+v", src, want.Offset, got, want)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no positions checked")
	}
}

// TestLinesSpan resolves both ends of a range.
func TestLinesSpan(t *testing.T) {
	src := "a\r\nbc\u2028d"
	got := ast.NewLines(src).Span(ast.Range{Start: 4, End: int32(len(src))})
	want := ast.Span{
		Start: ast.Pos{Offset: 4, Line: 2, Column: 1},
		End:   ast.Pos{Offset: int32(len(src)), Line: 3, Column: 1},
	}
	if got != want {
		t.Fatalf("Span = %+v, want %+v", got, want)
	}
}
