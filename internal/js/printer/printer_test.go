package printer

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/js/ast"
	"repro/internal/js/parser"
)

// compactOf parses and compact-prints.
func compactOf(t *testing.T, src string) string {
	t.Helper()
	prog, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return Compact(prog)
}

func TestCompactOutput(t *testing.T) {
	tests := map[string]string{
		`var x = 1;`:                        `var x=1;`,
		`if (a) { b(); } else { c(); }`:     `if(a){b();}else{c();}`,
		`x = a + b;`:                        `x=a+b;`,
		`return;`:                           `return;`,
		`for (var i = 0; i < 3; i++) f(i);`: `for(var i=0;i<3;i++)f(i);`,
		`x = a in b;`:                       `x=a in b;`,
		`x = typeof a;`:                     `x=typeof a;`,
		`x = a instanceof B;`:               `x=a instanceof B;`,
		`throw new Error("x");`:             `throw new Error("x");`,
		`x = y ? 1 : 2;`:                    `x=y?1:2;`,
		`x = function () { return 1; };`:    `x=function(){return 1;};`,
		`x = -(-y);`:                        `x=- -y;`,
		`x = +(+y);`:                        `x=+ +y;`,
		`x = a < !--b;`:                     `x=a<! --b;`,
		`x = [a, , ];`:                      `x=[a,,];`,
		`[, ] = x;`:                         `[,]=x;`,
		`f = async (await) => 1;`:           `f=async (await)=>1;`,
		"x = `a\\r\\nb`;":                   "x=`a\\r\nb`;",
		`x = 1000000;`:                      `x=1e6;`,
		`x = {a: 1};`:                       `x={a:1};`,
		`delete a.b;`:                       `delete a.b;`,
		`x = (a, b);`:                       `x=(a,b);`,
	}
	for src, want := range tests {
		if got := compactOf(t, src); got != want {
			t.Fatalf("compact(%q) = %q, want %q", src, got, want)
		}
	}
}

func TestParenthesization(t *testing.T) {
	// Cases where parentheses are required for correctness.
	tests := []string{
		`x = (a + b) * c;`,
		`x = a * (b + c);`,
		`x = (a = b) + 1;`,
		`x = -(a + b);`,
		`(function () {})();`,
		`x = (a ? b : c) ? d : e;`,
		`new (f())();`,
		`x = (a, b), c;`,
		`x = a ** (b ** c);`,
		`x = (a ** b) ** c;`,
		`({a} = b);`,
	}
	for _, src := range tests {
		prog1, err := parser.ParseProgram(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		out := Compact(prog1)
		prog2, err := parser.ParseProgram(out)
		if err != nil {
			t.Fatalf("%q printed as %q which does not reparse: %v", src, out, err)
		}
		if again := Compact(prog2); again != out {
			t.Fatalf("not a fixed point: %q -> %q -> %q", src, out, again)
		}
	}
}

func TestPrettyIndentation(t *testing.T) {
	prog, err := parser.ParseProgram(`function f(){if(a){b();}}`)
	if err != nil {
		t.Fatal(err)
	}
	out := Pretty(prog)
	if !strings.Contains(out, "\n  if (a) {\n    b();\n  }\n") {
		t.Fatalf("unexpected pretty output:\n%s", out)
	}
}

func TestFormatNumber(t *testing.T) {
	tests := map[float64]string{
		0:       "0",
		1:       "1",
		1.5:     "1.5",
		1000000: "1e6",
		0.001:   "0.001",
		31:      "31",
	}
	for in, want := range tests {
		if got := FormatNumber(in); got != want {
			t.Fatalf("FormatNumber(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestQuoteString(t *testing.T) {
	tests := map[string]string{
		"plain":     `"plain"`,
		"with\nnl":  `"with\nnl"`,
		`has"quote`: `'has"quote'`,
		`both"and'`: `"both\"and'"`,
		"tab\there": `"tab\there"`,
		"null\x00":  `"null\0"`,
		"ctrl\x01":  `"ctrl\x01"`,
	}
	for in, want := range tests {
		if got := QuoteString(in); got != want {
			t.Fatalf("QuoteString(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestQuoteStringRoundTripProperty: any string quoted by the printer lexes
// back to the identical value.
func TestQuoteStringRoundTripProperty(t *testing.T) {
	f := func(s string) bool {
		if !isValidUTF8(s) {
			return true
		}
		quoted := QuoteString(s)
		prog, err := parser.ParseProgram("x = " + quoted + ";")
		if err != nil {
			return false
		}
		es := prog.Body[0].(*ast.ExpressionStatement)
		assign := es.Expression.(*ast.AssignmentExpression)
		lit, ok := assign.Right.(*ast.Literal)
		return ok && lit.Kind == ast.LiteralString && lit.String == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func isValidUTF8(s string) bool {
	for _, r := range s {
		if r == 0xFFFD {
			return false // replacement char: input was not valid UTF-8
		}
	}
	return true
}

func TestMinifiedASIHazards(t *testing.T) {
	// `return` with argument must not merge into the next identifier;
	// `a + +b` must not merge into `a ++ b`.
	srcs := []string{
		`function f() { return value; }`,
		`x = a + +b;`,
		`x = a - -b;`,
		`x = a / re;`,
	}
	for _, src := range srcs {
		out := compactOf(t, src)
		if _, err := parser.ParseProgram(out); err != nil {
			t.Fatalf("minified %q = %q does not reparse: %v", src, out, err)
		}
	}
}

func TestObjectAtStatementStart(t *testing.T) {
	prog := &ast.Program{Body: []ast.Node{
		&ast.ExpressionStatement{Expression: &ast.ObjectExpression{}},
	}}
	out := Compact(prog)
	if !strings.HasPrefix(out, "(") {
		t.Fatalf("object at statement start needs parens: %q", out)
	}
	if _, err := parser.ParseProgram(out); err != nil {
		t.Fatalf("%q does not reparse: %v", out, err)
	}
}

func TestNumberMemberAccess(t *testing.T) {
	prog := &ast.Program{Body: []ast.Node{
		&ast.ExpressionStatement{Expression: &ast.MemberExpression{
			Object:   ast.NewNumber(42),
			Property: ast.NewIdentifier("toString"),
		}},
	}}
	out := Compact(prog)
	if _, err := parser.ParseProgram(out); err != nil {
		t.Fatalf("%q does not reparse: %v", out, err)
	}
	if !strings.Contains(out, "(42)") {
		t.Fatalf("expected parenthesized number, got %q", out)
	}
}

func TestTemplatePrinting(t *testing.T) {
	for _, src := range []string{
		"x = `a${b}c`;",
		"x = `with \\` backtick`;",
		"x = `with ${`nested ${deep}`} inner`;",
		"x = tag`tpl`;",
	} {
		out := compactOf(t, src)
		if _, err := parser.ParseProgram(out); err != nil {
			t.Fatalf("%q -> %q does not reparse: %v", src, out, err)
		}
	}
}

func TestClassFieldPrinting(t *testing.T) {
	src := `class A { x = 1; static y = "s"; #z; m() { return this.x; } }`
	out := compactOf(t, src)
	for _, want := range []string{"x=1;", `static y="s";`, "#z;", "m()"} {
		if !strings.Contains(out, want) {
			t.Fatalf("compact output %q missing %q", out, want)
		}
	}
	prog, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	pretty := Pretty(prog)
	if _, err := parser.ParseProgram(pretty); err != nil {
		t.Fatalf("pretty class fields do not reparse: %v\n%s", err, pretty)
	}
}
