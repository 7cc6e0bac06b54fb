package parser

import (
	"testing"

	"repro/internal/js/ast"
	"repro/internal/js/parser/refspec"
	"repro/internal/js/printer"
)

// FuzzParse checks the parser never panics, that anything it accepts
// round-trips through the printer to a fixed point, and that the arena
// parser agrees with the refspec snapshot of the pre-arena parser on every
// input the fuzzer invents: the same tree, the same token and comment
// offsets, with ast.Lines resolving each to the line and column the
// reference counted, and the same text for a rejection.
func FuzzParse(f *testing.F) {
	seeds := []string{
		`var x = 1;`,
		`function f(a, b) { return a + b; }`,
		`x = a ? b : c;`,
		"x = `tpl ${a + 1} end`;",
		`class A extends B { m() { super.m(); } #f = 1; }`,
		`for (const [k, v] of pairs) log(k, v);`,
		`x = /re[/]/g;`,
		`({a = 1, ...rest} = obj);`,
		`async () => await p;`,
		`l: while (true) { break l; }`,
		`x = a?.b?.["c"]?.(1);`,
		"<!-- html comment\nvar y = 2;",
		`x = 0x1fn + 1_000;`,
		`try {} catch {} finally {}`,
	}
	// Escape-heavy seeds steer the fuzzer onto the lexer's slow paths,
	// where StringValue must own decoded memory instead of slicing the
	// source buffer. The backslashes are concatenated in ("\x5C") so the
	// escapes stay in the JavaScript text rather than being decoded by Go.
	const bs = "\x5C"
	seeds = append(seeds,
		"var "+bs+"u0041bc = "+bs+"u0041bc + 1;",
		"s = 'a"+bs+"u0041"+bs+"x42"+bs+"n"+bs+"0';",
		"s = \""+bs+"u{1F600}\";",
		"s = 'a"+bs+"\r\nb';",
		"t = `a\r\nb${1}c\rd`;",
		"s = 'x"+string(rune(0x2028))+"y';",
		"class E { #"+bs+"u0079 = 1; m() { return this.#"+bs+"u0079; } }",
		"s = 'a\xFFb';",
	)
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		res, err := Parse(src)
		ref, refErr := refspec.Parse(src)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("arena/reference disagree on acceptance: arena %v, reference %v\ninput: %q", err, refErr, src)
		}
		if err != nil {
			// Rejecting is fine, panicking is not; the reason and its line
			// and column must be the reference's.
			if err.Error() != refErr.Error() {
				t.Fatalf("arena/reference errors differ:\narena:     %v\nreference: %v\ninput: %q", err, refErr, src)
			}
			return
		}
		out := printer.Compact(res.Program)
		if refOut := printer.Compact(ref.Program); refOut != out {
			t.Fatalf("arena tree diverges from reference:\ninput: %q\narena: %q\nreference: %q", src, out, refOut)
		}
		if len(res.Tokens) != len(ref.Tokens) || len(res.Comments) != len(ref.Comments) {
			t.Fatalf("arena has %d tokens and %d comments, reference %d and %d\ninput: %q",
				len(res.Tokens), len(res.Comments), len(ref.Tokens), len(ref.Comments), src)
		}
		lines := ast.NewLines(src)
		for i, tok := range res.Tokens {
			r := ref.Tokens[i]
			if got := lines.Span(ast.Range{Start: tok.Start, End: tok.End}); got != (ast.Span{Start: r.Start, End: r.End}) {
				t.Fatalf("token %d %q at %+v, reference %+v-%+v\ninput: %q", i, tok.Lexeme, got, r.Start, r.End, src)
			}
		}
		for i, c := range res.Comments {
			if got := lines.Span(c.Range); got != ref.Comments[i].Span {
				t.Fatalf("comment %d at %+v, reference %+v\ninput: %q", i, got, ref.Comments[i].Span, src)
			}
		}
		prog2, err := ParseProgram(out)
		if err != nil {
			t.Fatalf("printer output does not reparse: %v\ninput: %q\nprinted: %q", err, src, out)
		}
		out2 := printer.Compact(prog2)
		if out != out2 {
			t.Fatalf("print not a fixed point:\ninput: %q\n1st: %q\n2nd: %q", src, out, out2)
		}
	})
}
