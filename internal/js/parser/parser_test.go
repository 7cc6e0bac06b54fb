package parser

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/js/ast"
	"repro/internal/js/printer"
	"repro/internal/js/walker"
)

// roundTrip parses src, prints it, reparses the output, and checks that the
// two compact prints agree (a fixed point of parse∘print).
func roundTrip(t *testing.T, src string) *ast.Program {
	t.Helper()
	prog, err := ParseProgram(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	out := printer.Compact(prog)
	prog2, err := ParseProgram(out)
	if err != nil {
		t.Fatalf("reparse printed output %q (from %q): %v", out, src, err)
	}
	out2 := printer.Compact(prog2)
	if out != out2 {
		t.Fatalf("print not a fixed point:\n src: %q\n 1st: %q\n 2nd: %q", src, out, out2)
	}
	// Pretty output must parse too.
	pretty := printer.Pretty(prog)
	if _, err := ParseProgram(pretty); err != nil {
		t.Fatalf("pretty output does not reparse: %v\n%s", err, pretty)
	}
	return prog
}

func TestRoundTripStatements(t *testing.T) {
	tests := []string{
		`var x = 1;`,
		`let x = 1, y = 2;`,
		`const {a, b: c, d = 3} = obj;`,
		`var [x, , y, ...rest] = arr;`,
		`if (a) b(); else if (c) d(); else e();`,
		`for (var i = 0; i < 10; i++) { total += i; }`,
		`for (;;) break;`,
		`for (var k in obj) delete obj[k];`,
		`for (const v of list) console.log(v);`,
		`while (x > 0) x--;`,
		`do { x++; } while (x < 5);`,
		"switch (v) {\ncase 1: a(); break;\ncase 2:\ndefault: b();\n}",
		`try { risky(); } catch (e) { handle(e); } finally { cleanup(); }`,
		`try { risky(); } catch { recover(); }`,
		`label: for (;;) { continue label; }`,
		`throw new Error("boom");`,
		`debugger;`,
		`with (Math) { x = cos(PI); }`,
		`;`,
		`function f(a, b = 1, ...rest) { return a + b; }`,
		`async function g() { await h(); }`,
		`function* gen() { yield 1; yield* other(); }`,
		`class A extends B { constructor(x) { super(x); } static m() {} get v() { return 1; } set v(x) {} }`,
		`import "side-effect";`,
		`import def from "mod";`,
		`import * as ns from "mod";`,
		`import def, {a, b as c} from "mod";`,
		`export {a, b as c};`,
		`export default function () {};`,
		`export default 42;`,
		`export const x = 1;`,
		`export * from "mod";`,
	}
	for _, src := range tests {
		t.Run(src, func(t *testing.T) { roundTrip(t, src) })
	}
}

func TestRoundTripExpressions(t *testing.T) {
	tests := []string{
		`x = a + b * c - d / e % f;`,
		`x = (a + b) * c;`,
		`x = a ** b ** c;`,
		`x = (a ** b) ** c;`,
		`x = a === b ? c : d;`,
		`x = a ?? b ?? c;`,
		`x = a && b || c;`,
		`x = a | b ^ c & d;`,
		`x = a << 2 >> 3 >>> 4;`,
		`x = -a + +b - ~c + !d;`,
		`x = typeof a;`,
		`x = void 0;`,
		`delete obj.prop;`,
		`x = a in b;`,
		`x = a instanceof B;`,
		`i++, j--, ++k, --l;`,
		`x = obj.a.b.c;`,
		`x = obj["key"]["other"];`,
		`x = obj?.a?.b;`,
		`x = fn?.(1, 2);`,
		`x = obj?.["k"];`,
		`f(a, b, ...rest);`,
		`new Date();`,
		`new Map([[1, 2]]);`,
		`x = new a.b.C(1);`,
		`x = new (getClass())(1);`,
		`x = [1, 2, , 3, ...more];`,
		`x = {a: 1, "b": 2, 3: c, [k]: v, short, m() {}, get g() { return 1; }, ...spread};`,
		`x = function named() { return named; };`,
		`x = function () {};`,
		`x = () => 1;`,
		`x = y => y * 2;`,
		`x = (a, b) => { return a + b; };`,
		`x = (a = 1, ...rest) => rest.length + a;`,
		`x = async () => await p;`,
		`x = async y => y;`,
		`x = class Named extends Base { m() {} };`,
		"x = `plain`;",
		"x = `a${b}c${d}e`;",
		"x = tag`tpl ${v}`;",
		"x = `nested ${`inner ${deep}`}`;",
		`x = /ab+c/gi.test(s);`,
		`x = s.replace(/x\/y/, "z");`,
		`x = a, b, c;`,
		`(function () { go(); })();`,
		`(() => start())();`,
		`x = this.that;`,
		`x = 0x1f + 0b101 + 0o17 + 1e3 + 1.5e-2 + .5;`,
		`x = "quotes \" and ' and \n and \t and \\ and é and \x41";`,
		`({a, b} = c);`,
		`[a, b] = [b, a];`,
		`x = a?.b ?? c;`,
		`x = (a, b);`,
		`x = 1000000;`,
		`if (x) { ({y} = z); }`,
		`x = a ? b ? c : d : e;`,
		`x = (a = b) => a;`,
		`obj.if = 1;`,
		`x = obj.class.function;`,
		`x = {var: 1, new: 2, delete: 3};`,
		`async()`,
		`x = async(1, 2);`,
	}
	for _, src := range tests {
		t.Run(src, func(t *testing.T) { roundTrip(t, src) })
	}
}

func TestASI(t *testing.T) {
	tests := []string{
		"var x = 1\nvar y = 2",
		"a()\nb()",
		"return", // at top level our parser is lenient inside functions only; keep in function
	}
	_ = tests
	srcs := []string{
		"var x = 1\nvar y = 2",
		"a()\nb()",
		"function f() {\n  return\n}",
		"function f() {\n  return 1\n}",
		"x = 1\n++y",
		"do x++; while (x < 5)\nf()",
	}
	for _, src := range srcs {
		t.Run(src, func(t *testing.T) { roundTrip(t, src) })
	}
}

func TestASIRestrictedReturn(t *testing.T) {
	prog, err := ParseProgram("function f() {\n  return\n  1\n}")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	fn := prog.Body[0].(*ast.FunctionDeclaration)
	ret, ok := fn.Body.Body[0].(*ast.ReturnStatement)
	if !ok {
		t.Fatalf("expected ReturnStatement, got %s", fn.Body.Body[0].Type())
	}
	if ret.Argument != nil {
		t.Fatal("newline after return must terminate the statement")
	}
	if len(fn.Body.Body) != 2 {
		t.Fatalf("expected 2 statements in body, got %d", len(fn.Body.Body))
	}
}

func TestASIRestrictedPostfix(t *testing.T) {
	prog, err := ParseProgram("x\n++y")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(prog.Body) != 2 {
		t.Fatalf("expected 2 statements, got %d", len(prog.Body))
	}
	second := prog.Body[1].(*ast.ExpressionStatement).Expression
	upd, ok := second.(*ast.UpdateExpression)
	if !ok || !upd.Prefix {
		t.Fatal("++y must parse as a prefix update of the next statement")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`var = 1;`,
		`if (a {}`,
		`function () {}`, // function declaration needs a name... we allow anonymous only in export default
		`x = ;`,
		`"unterminated`,
		`x = 1 +`,
		`try {}`,
		"`unterminated template",
		`/* unterminated comment`,
		`a b`,
	}
	for _, src := range bad {
		t.Run(src, func(t *testing.T) {
			if _, err := ParseProgram(src); err == nil {
				t.Fatalf("expected error for %q", src)
			}
		})
	}
}

func TestNodeShapes(t *testing.T) {
	prog := roundTrip(t, `var total = items.reduce((acc, it) => acc + it.price, 0);`)
	decl := prog.Body[0].(*ast.VariableDeclaration)
	if decl.Kind != "var" {
		t.Fatalf("kind = %q", decl.Kind)
	}
	call := decl.Declarations[0].Init.(*ast.CallExpression)
	member := call.Callee.(*ast.MemberExpression)
	if member.Computed {
		t.Fatal("reduce access must be dot notation")
	}
	if id := member.Property.(*ast.Identifier); id.Name != "reduce" {
		t.Fatalf("property = %q", id.Name)
	}
	if len(call.Arguments) != 2 {
		t.Fatalf("arguments = %d", len(call.Arguments))
	}
	if _, ok := call.Arguments[0].(*ast.ArrowFunctionExpression); !ok {
		t.Fatalf("first arg = %s", call.Arguments[0].Type())
	}
}

func TestTernaryVsOptionalChain(t *testing.T) {
	prog := roundTrip(t, `x = a?.5:b;`)
	expr := prog.Body[0].(*ast.ExpressionStatement).Expression.(*ast.AssignmentExpression)
	if _, ok := expr.Right.(*ast.ConditionalExpression); !ok {
		t.Fatalf("a?.5:b must be a ternary, got %s", expr.Right.Type())
	}
}

func TestDirectives(t *testing.T) {
	prog, err := ParseProgram("\"use strict\";\nvar x = 1;")
	if err != nil {
		t.Fatal(err)
	}
	es := prog.Body[0].(*ast.ExpressionStatement)
	if es.Directive != "use strict" {
		t.Fatalf("directive = %q", es.Directive)
	}
}

func TestTokensCollected(t *testing.T) {
	res, err := Parse(`var x = 1 + 2; // done`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tokens) < 6 {
		t.Fatalf("expected tokens, got %d", len(res.Tokens))
	}
	if len(res.Comments) != 1 {
		t.Fatalf("expected 1 comment, got %d", len(res.Comments))
	}
	if res.Comments[0].Text != " done" {
		t.Fatalf("comment text = %q", res.Comments[0].Text)
	}
}

func TestDeeplyNestedGuard(t *testing.T) {
	src := strings.Repeat("(", 5000) + "1" + strings.Repeat(")", 5000)
	if _, err := ParseProgram("x = " + src + ";"); err == nil {
		t.Fatal("expected depth-guard error")
	}
}

// TestSourceLenGuard checks the 32-bit offset limit through its helper, so
// no 2 GiB source is ever allocated: the largest source whose offsets fit
// passes, one byte more is a parse error.
func TestSourceLenGuard(t *testing.T) {
	if err := checkSourceLen(math.MaxInt32); err != nil {
		t.Fatalf("checkSourceLen(MaxInt32) = %v, want nil", err)
	}
	var perr *Error
	if err := checkSourceLen(math.MaxInt32 + 1); !errors.As(err, &perr) {
		t.Fatalf("checkSourceLen(MaxInt32+1) = %v, want a parse error", err)
	}
}

func TestSpansMonotonic(t *testing.T) {
	prog := roundTrip(t, "function f(a) {\n  return a * 2;\n}\nvar r = f(21);")
	walker.Walk(prog, func(n ast.Node, _ int) bool {
		r := n.Range()
		if r.End < r.Start {
			t.Fatalf("%s: end < start (%d < %d)", n.Type(), r.End, r.Start)
		}
		return true
	})
}

func TestLargeInputPerformance(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 2000; i++ {
		sb.WriteString("function f")
		sb.WriteString(strings.Repeat("x", 3))
		sb.WriteString("(a, b) { return a + b * 2; }\n")
	}
	if _, err := ParseProgram(sb.String()); err != nil {
		t.Fatal(err)
	}
}

func TestClassFields(t *testing.T) {
	prog := roundTrip(t, `class Counter {
  count = 0;
  static limit = 100;
  #hidden;
  label = "ticks";
  constructor() { this.count = 0; }
  tick() { this.count++; }
}`)
	cls := prog.Body[0].(*ast.ClassDeclaration)
	var fields, methods int
	for _, m := range cls.Body.Body {
		switch m.(type) {
		case *ast.PropertyDefinition:
			fields++
		case *ast.MethodDefinition:
			methods++
		}
	}
	if fields != 4 {
		t.Fatalf("fields = %d, want 4", fields)
	}
	if methods != 2 {
		t.Fatalf("methods = %d, want 2", methods)
	}
	var staticField *ast.PropertyDefinition
	for _, m := range cls.Body.Body {
		if f, ok := m.(*ast.PropertyDefinition); ok && f.Static {
			staticField = f
		}
	}
	if staticField == nil {
		t.Fatal("static field missing")
	}
}

// TestParsesCounter pins the parse-once test hook: every Parse entry point
// bumps the process-wide counter exactly once, including failed parses.
func TestParsesCounter(t *testing.T) {
	before := Parses()
	if _, err := ParseNoTokens("var a = 1;"); err != nil {
		t.Fatal(err)
	}
	if _, err := Parse("a + b;"); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseNoTokens("function ( {{{"); err == nil {
		t.Fatal("expected parse error")
	}
	if delta := Parses() - before; delta != 3 {
		t.Fatalf("Parses delta = %d, want 3", delta)
	}
}
