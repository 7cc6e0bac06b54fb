package lexer

import (
	"strings"
	"testing"
	"testing/quick"
)

// scanAll tokenizes src fully, failing the test on error.
func scanAll(t *testing.T, src string) []Token {
	t.Helper()
	l := New(src)
	var toks []Token
	for {
		tok, err := l.Next()
		if err != nil {
			t.Fatalf("lex %q: %v", src, err)
		}
		if tok.Kind == EOF {
			return toks
		}
		toks = append(toks, tok)
	}
}

func kinds(toks []Token) []Kind {
	out := make([]Kind, len(toks))
	for i, tok := range toks {
		out[i] = tok.Kind
	}
	return out
}

func TestBasicTokens(t *testing.T) {
	toks := scanAll(t, `var x = 42;`)
	want := []Kind{Keyword, Ident, Punct, Number, Punct}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d = %v, want %v", i, got[i], want[i])
		}
	}
	if toks[3].NumberValue != 42 {
		t.Fatalf("number value = %v", toks[3].NumberValue)
	}
}

func TestNumberForms(t *testing.T) {
	tests := map[string]float64{
		"0":       0,
		"123":     123,
		"1.5":     1.5,
		".5":      0.5,
		"1e3":     1000,
		"1.5e-2":  0.015,
		"0x1f":    31,
		"0X1F":    31,
		"0b101":   5,
		"0o17":    15,
		"017":     15, // legacy octal
		"089":     89, // decimal despite leading zero
		"1_000":   1000,
		"123n":    123, // BigInt suffix accepted
		"0xFF_FF": 65535,
	}
	for src, want := range tests {
		toks := scanAll(t, src)
		if len(toks) != 1 || toks[0].Kind != Number {
			t.Fatalf("%q: tokens %v", src, kinds(toks))
		}
		if toks[0].NumberValue != want {
			t.Fatalf("%q = %v, want %v", src, toks[0].NumberValue, want)
		}
	}
}

func TestStringEscapes(t *testing.T) {
	tests := map[string]string{
		`"plain"`:          "plain",
		`'single'`:         "single",
		`"a\nb\tc"`:        "a\nb\tc",
		`"\x41\x42"`:       "AB",
		`"A"`:              "A",
		`"\u{1F600}"`:      "😀",
		`"\0"`:             "\x00",
		`"\101"`:           "A", // octal
		`"quote\"inside"`:  `quote"inside`,
		`"back\\slash"`:    `back\slash`,
		"\"line\\\ncont\"": "linecont", // line continuation
	}
	for src, want := range tests {
		toks := scanAll(t, src)
		if len(toks) != 1 || toks[0].Kind != String {
			t.Fatalf("%q: tokens %v", src, kinds(toks))
		}
		if toks[0].StringValue != want {
			t.Fatalf("%q = %q, want %q", src, toks[0].StringValue, want)
		}
	}
}

func TestUnterminatedInputs(t *testing.T) {
	for _, src := range []string{`"abc`, "'abc", "`abc", "/* abc", `/abc`} {
		l := New(src)
		var err error
		for {
			var tok Token
			tok, err = l.Next()
			if err != nil || tok.Kind == EOF {
				break
			}
		}
		if err == nil {
			t.Fatalf("%q: expected error", src)
		}
	}
}

func TestRegexVsDivision(t *testing.T) {
	// After an identifier, '/' is division.
	toks := scanAll(t, "a / b")
	if toks[1].Kind != Punct || toks[1].Lexeme != "/" {
		t.Fatalf("a / b: %v", kinds(toks))
	}
	// After '=', '/' starts a regex.
	toks = scanAll(t, "x = /ab+c/gi")
	last := toks[len(toks)-1]
	if last.Kind != Regex {
		t.Fatalf("x = /re/: %v", kinds(toks))
	}
	if last.RegexPattern != "ab+c" || last.RegexFlags != "gi" {
		t.Fatalf("pattern %q flags %q", last.RegexPattern, last.RegexFlags)
	}
	// Regex with a slash inside a character class.
	toks = scanAll(t, `x = /[/]/`)
	if toks[len(toks)-1].Kind != Regex {
		t.Fatalf("char class: %v", kinds(toks))
	}
	// After ')', division.
	toks = scanAll(t, "(a) / 2")
	sawDiv := false
	for _, tok := range toks {
		if tok.IsPunct("/") {
			sawDiv = true
		}
	}
	if !sawDiv {
		t.Fatal("(a) / 2 must lex '/' as division")
	}
}

func TestTemplates(t *testing.T) {
	toks := scanAll(t, "`plain`")
	if len(toks) != 1 || toks[0].Kind != NoSubstTemplate {
		t.Fatalf("plain template: %v", kinds(toks))
	}
	if toks[0].StringValue != "plain" {
		t.Fatalf("cooked = %q", toks[0].StringValue)
	}
	// Head is produced; the parser drives the continuation.
	l := New("`a${x}b`")
	tok, err := l.Next()
	if err != nil || tok.Kind != TemplateHead {
		t.Fatalf("head: %v %v", tok.Kind, err)
	}
	tok, err = l.Next() // x
	if err != nil || tok.Kind != Ident {
		t.Fatalf("ident: %v %v", tok.Kind, err)
	}
	tok, err = l.Next() // }
	if err != nil || !tok.IsPunct("}") {
		t.Fatalf("close: %v %v", tok.Kind, err)
	}
	tok, err = l.RescanTemplateContinue(tok)
	if err != nil || tok.Kind != TemplateTail {
		t.Fatalf("tail: %v %v", tok.Kind, err)
	}
	if tok.StringValue != "b" {
		t.Fatalf("tail cooked = %q", tok.StringValue)
	}
}

// TestTemplateCooksLineTerminators pins ECMAScript's normalization of line
// terminators in template values: a CR or a CRLF cooks as one LF.
func TestTemplateCooksLineTerminators(t *testing.T) {
	cases := []struct{ src, cooked string }{
		{"`a\r\nb`", "a\nb"},
		{"`a\rb`", "a\nb"},
		{"`a\r\rb`", "a\n\nb"},
		{"`a\n\r\nb\r`", "a\n\nb\n"},
		{"`\\x41\r\n`", "A\n"},
	}
	for _, tc := range cases {
		toks := scanAll(t, tc.src)
		if len(toks) != 1 || toks[0].Kind != NoSubstTemplate {
			t.Fatalf("%q: %v", tc.src, kinds(toks))
		}
		if toks[0].StringValue != tc.cooked {
			t.Errorf("%q cooked = %q, want %q", tc.src, toks[0].StringValue, tc.cooked)
		}
		if toks[0].Lexeme != tc.src {
			t.Errorf("%q raw = %q, want the source text", tc.src, toks[0].Lexeme)
		}
	}
	tok, err := New("`a\r\n${x}`").Next()
	if err != nil || tok.Kind != TemplateHead || tok.StringValue != "a\n" {
		t.Fatalf("head = %v %q %v, want TemplateHead \"a\\n\"", tok.Kind, tok.StringValue, err)
	}
}

func TestCommentsCollected(t *testing.T) {
	l := New("// line\nvar x; /* block */ var y;")
	for {
		tok, err := l.Next()
		if err != nil {
			t.Fatal(err)
		}
		if tok.Kind == EOF {
			break
		}
	}
	comments := l.Comments()
	if len(comments) != 2 {
		t.Fatalf("comments = %d", len(comments))
	}
	if comments[0].Text != " line" || comments[0].Block {
		t.Fatalf("comment 0 = %+v", comments[0])
	}
	if comments[1].Text != " block " || !comments[1].Block {
		t.Fatalf("comment 1 = %+v", comments[1])
	}
}

func TestNewlineBefore(t *testing.T) {
	toks := scanAll(t, "a\nb c")
	if toks[0].NewlineBefore {
		t.Fatal("first token has no preceding newline")
	}
	if !toks[1].NewlineBefore {
		t.Fatal("b follows a newline")
	}
	if toks[2].NewlineBefore {
		t.Fatal("c follows a space only")
	}
}

func TestPunctuatorMaximalMunch(t *testing.T) {
	tests := map[string][]string{
		"a >>>= b":  {">>>="},
		"a >>> b":   {">>>"},
		"a === b":   {"==="},
		"a !== b":   {"!=="},
		"a ** b":    {"**"},
		"a ??= b":   {"??="},
		"a?.b":      {"?."},
		"...rest":   {"..."},
		"a => b":    {"=>"},
		"a && b":    {"&&"},
		"x++ + ++y": {"++", "+", "++"},
	}
	for src, wantPuncts := range tests {
		toks := scanAll(t, src)
		var got []string
		for _, tok := range toks {
			if tok.Kind == Punct {
				got = append(got, tok.Lexeme)
			}
		}
		if len(got) < len(wantPuncts) {
			t.Fatalf("%q: puncts %v", src, got)
		}
		for i, want := range wantPuncts {
			if got[i] != want {
				t.Fatalf("%q: punct %d = %q, want %q", src, i, got[i], want)
			}
		}
	}
}

func TestUnicodeIdentifiers(t *testing.T) {
	toks := scanAll(t, "var café = 1; var \\u0041bc = 2;")
	if toks[1].Lexeme != "café" || toks[1].StringValue != "café" {
		t.Fatalf("unicode ident = %q / %q", toks[1].Lexeme, toks[1].StringValue)
	}
	// Lexeme is the raw source slice; StringValue carries the decoded name.
	if toks[6].Lexeme != `\u0041bc` {
		t.Fatalf("escaped ident lexeme = %q", toks[6].Lexeme)
	}
	if toks[6].StringValue != "Abc" {
		t.Fatalf("escaped ident value = %q", toks[6].StringValue)
	}
}

func TestKeywordRecognition(t *testing.T) {
	toks := scanAll(t, "function typeof instanceof async of get")
	wantKinds := []Kind{Keyword, Keyword, Keyword, Ident, Ident, Ident}
	for i, want := range wantKinds {
		if toks[i].Kind != want {
			t.Fatalf("token %d (%q) = %v, want %v", i, toks[i].Lexeme, toks[i].Kind, want)
		}
	}
}

// TestPositions: tokens carry byte offsets only; ast.Lines resolves them,
// and the refspec differential pins what it resolves to the reference.
func TestPositions(t *testing.T) {
	toks := scanAll(t, "ab\n cd")
	if toks[0].Start != 0 || toks[0].End != 2 {
		t.Fatalf("ab at [%d, %d), want [0, 2)", toks[0].Start, toks[0].End)
	}
	if toks[1].Start != 4 || toks[1].End != 6 {
		t.Fatalf("cd at [%d, %d), want [4, 6)", toks[1].Start, toks[1].End)
	}
}

// TestLexerNeverPanicsProperty: arbitrary byte strings either tokenize or
// return an error — never panic, never loop forever (guarded by the token
// budget below).
func TestLexerNeverPanicsProperty(t *testing.T) {
	f := func(src string) bool {
		l := New(src)
		for i := 0; i < len(src)+16; i++ {
			tok, err := l.Next()
			if err != nil {
				return true
			}
			if tok.Kind == EOF {
				return true
			}
		}
		// More tokens than bytes plus slack means no progress.
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSaveRestore(t *testing.T) {
	l := New("a + b")
	if _, err := l.Next(); err != nil {
		t.Fatal(err)
	}
	st := l.Save()
	tok1, err := l.Next()
	if err != nil {
		t.Fatal(err)
	}
	l.Restore(st)
	tok2, err := l.Next()
	if err != nil {
		t.Fatal(err)
	}
	if tok1.Lexeme != tok2.Lexeme || tok1.Start != tok2.Start {
		t.Fatalf("restore mismatch: %+v vs %+v", tok1, tok2)
	}
}

func TestHTMLComments(t *testing.T) {
	src := "<!-- hidden from old browsers\nvar x = 1;\n--> trailing\nvar y = 2;"
	toks := scanAll(t, src)
	var names []string
	for _, tok := range toks {
		names = append(names, tok.Lexeme)
	}
	// Both HTML comment lines vanish; the two declarations survive.
	want := []string{"var", "x", "=", "1", ";", "var", "y", "=", "2", ";"}
	if len(names) != len(want) {
		t.Fatalf("tokens = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("token %d = %q, want %q", i, names[i], want[i])
		}
	}
	l := New(src)
	for {
		tok, err := l.Next()
		if err != nil {
			t.Fatal(err)
		}
		if tok.Kind == EOF {
			break
		}
	}
	if len(l.Comments()) != 2 {
		t.Fatalf("comments = %d, want 2", len(l.Comments()))
	}
}

// TestZeroAllocScanning pins the zero-copy contract: once the comment
// buffer is warm, scanning escape-free source must not allocate at all —
// every Lexeme and StringValue is a slice of the source buffer, also for a
// string or template holding a raw U+2028 or U+2029.
func TestZeroAllocScanning(t *testing.T) {
	src := strings.Repeat("var abc = 'hello' + 12.5; // note\nfoo.bar(baz, `tpl`, #x); "+
		"s = 'a\u2028b\u2029c' + `d\u2029e\u2028f`; ", 40)
	l := New(src)
	drain := func() {
		l.Reset(src)
		for {
			tok, err := l.Next()
			if err != nil {
				t.Fatalf("lex: %v", err)
			}
			if tok.Kind == EOF {
				return
			}
		}
	}
	drain() // grow the comment buffer once
	if avg := testing.AllocsPerRun(100, drain); avg != 0 {
		t.Fatalf("escape-free scan allocates %v times per run, want 0", avg)
	}
}

// TestResetMatchesFreshLexer: a reused lexer must behave exactly like a new
// one — same tokens, same positions, same comments, no state leaking from
// the previous source.
func TestResetMatchesFreshLexer(t *testing.T) {
	first := "let leftovers = `a${1}b`; // poison\n"
	for _, src := range []string{
		"var x = 1; /* b */",
		"`plain` + 1",
		"a\nb",
		"x = /re/g;",
	} {
		reused := New(first)
		for {
			tok, err := reused.Next()
			if err != nil || tok.Kind == EOF {
				break
			}
		}
		reused.Reset(src)
		var got []Token
		for {
			tok, err := reused.Next()
			if err != nil {
				t.Fatalf("reused lex %q: %v", src, err)
			}
			if tok.Kind == EOF {
				break
			}
			got = append(got, tok)
		}
		want := scanAll(t, src)
		if len(got) != len(want) {
			t.Fatalf("%q: reused lexer produced %d tokens, fresh %d", src, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%q: token %d = %+v, fresh %+v", src, i, got[i], want[i])
			}
		}
		freshComments := func() []Comment {
			l := New(src)
			for {
				tok, err := l.Next()
				if err != nil || tok.Kind == EOF {
					break
				}
			}
			return l.Comments()
		}()
		if len(freshComments) != len(reused.Comments()) {
			t.Fatalf("%q: reused lexer has %d comments, fresh %d", src, len(reused.Comments()), len(freshComments))
		}
	}
}

// TestEscapeFreePrivateIdentSlices: an escape-free #name token keeps both
// its raw and decoded spellings as the same source slice.
func TestEscapeFreePrivateIdentSlices(t *testing.T) {
	toks := scanAll(t, "x.#abc")
	last := toks[len(toks)-1]
	if last.Kind != PrivateIdent {
		t.Fatalf("kinds = %v", kinds(toks))
	}
	if last.Lexeme != "#abc" || last.StringValue != "#abc" {
		t.Fatalf("private ident = %q / %q, want #abc for both", last.Lexeme, last.StringValue)
	}
}

func TestArrowNotHTMLComment(t *testing.T) {
	// `-->` mid-line is decrement + greater-than, not a comment.
	toks := scanAll(t, "x = a-- > b")
	var puncts []string
	for _, tok := range toks {
		if tok.Kind == Punct {
			puncts = append(puncts, tok.Lexeme)
		}
	}
	if len(puncts) != 3 || puncts[1] != "--" || puncts[2] != ">" {
		t.Fatalf("puncts = %v", puncts)
	}
}
