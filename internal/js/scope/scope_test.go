package scope

import (
	"testing"

	"repro/internal/js/ast"
	"repro/internal/js/parser"
)

func analyze(t *testing.T, src string) (*ast.Program, *Info) {
	t.Helper()
	prog, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return prog, Analyze(prog)
}

func findBinding(info *Info, name string) *Binding {
	for _, b := range info.Bindings {
		if b.Name == name {
			return b
		}
	}
	return nil
}

func TestSimpleResolution(t *testing.T) {
	_, info := analyze(t, `var x = 1; var y = x + x;`)
	bx := findBinding(info, "x")
	if bx == nil {
		t.Fatal("binding x not found")
	}
	if len(bx.Refs) != 2 {
		t.Fatalf("x refs = %d, want 2", len(bx.Refs))
	}
	if bx.Kind != BindVar {
		t.Fatalf("x kind = %v", bx.Kind)
	}
}

func TestFunctionScopes(t *testing.T) {
	_, info := analyze(t, `
var x = 1;
function f(a) {
  var x = 2;
  return x + a;
}
var z = f(x);`)
	var outer, inner *Binding
	for _, b := range info.Bindings {
		if b.Name == "x" {
			if b.Scope.Parent == nil {
				outer = b
			} else {
				inner = b
			}
		}
	}
	if outer == nil || inner == nil {
		t.Fatal("expected two x bindings (outer and inner)")
	}
	if len(inner.Refs) != 1 {
		t.Fatalf("inner x refs = %d, want 1 (the return)", len(inner.Refs))
	}
	if len(outer.Refs) != 1 {
		t.Fatalf("outer x refs = %d, want 1 (the f(x) call)", len(outer.Refs))
	}
	bf := findBinding(info, "f")
	if bf == nil || bf.Kind != BindFunction {
		t.Fatal("f must be a function binding")
	}
	if len(bf.Refs) != 1 {
		t.Fatalf("f refs = %d, want 1", len(bf.Refs))
	}
}

func TestVarHoisting(t *testing.T) {
	_, info := analyze(t, `
function f() {
  if (cond) {
    var hoisted = 1;
  }
  return hoisted;
}`)
	b := findBinding(info, "hoisted")
	if b == nil {
		t.Fatal("hoisted not found")
	}
	if !b.Scope.IsFunction {
		t.Fatal("var must hoist to the function scope")
	}
	if len(b.Refs) != 1 {
		t.Fatalf("hoisted refs = %d, want 1", len(b.Refs))
	}
}

func TestLetBlockScoping(t *testing.T) {
	_, info := analyze(t, `
let v = "outer";
{
  let v = "inner";
  use(v);
}
use(v);`)
	var count int
	for _, b := range info.Bindings {
		if b.Name == "v" {
			count++
			if len(b.Refs) != 1 {
				t.Fatalf("each v must have exactly 1 ref, got %d", len(b.Refs))
			}
		}
	}
	if count != 2 {
		t.Fatalf("expected 2 distinct v bindings, got %d", count)
	}
}

func TestForLoopLet(t *testing.T) {
	_, info := analyze(t, `
for (let i = 0; i < 3; i++) { log(i); }
for (let i = 0; i < 5; i++) { log(i); }`)
	var bindings []*Binding
	for _, b := range info.Bindings {
		if b.Name == "i" {
			bindings = append(bindings, b)
		}
	}
	if len(bindings) != 2 {
		t.Fatalf("expected 2 i bindings, got %d", len(bindings))
	}
	for _, b := range bindings {
		if len(b.Refs) != 3 {
			t.Fatalf("each i must have 3 refs (test, update, log), got %d", len(b.Refs))
		}
	}
}

func TestCatchParam(t *testing.T) {
	_, info := analyze(t, `try { go(); } catch (err) { report(err); }`)
	b := findBinding(info, "err")
	if b == nil || b.Kind != BindCatch {
		t.Fatal("err must be a catch binding")
	}
	if len(b.Refs) != 1 {
		t.Fatalf("err refs = %d, want 1", len(b.Refs))
	}
}

func TestUnresolvedGlobals(t *testing.T) {
	_, info := analyze(t, `document.getElementById("x"); window.alert(navigator.userAgent);`)
	names := map[string]bool{}
	for _, id := range info.Unresolved {
		names[id.Name] = true
	}
	for _, want := range []string{"document", "window", "navigator"} {
		if !names[want] {
			t.Fatalf("expected %s to be unresolved", want)
		}
	}
}

func TestDotPropertyNotReference(t *testing.T) {
	_, info := analyze(t, `var obj = {}; obj.value = 1; log(obj.value);`)
	for _, id := range info.Unresolved {
		if id.Name == "value" {
			t.Fatal("dot property must not be a variable reference")
		}
	}
	b := findBinding(info, "obj")
	if len(b.Refs) != 2 {
		t.Fatalf("obj refs = %d, want 2", len(b.Refs))
	}
}

func TestObjectKeysNotReferences(t *testing.T) {
	_, info := analyze(t, `var o = {width: 1, height: 2};`)
	for _, id := range info.Unresolved {
		if id.Name == "width" || id.Name == "height" {
			t.Fatal("object literal keys must not be references")
		}
	}
}

func TestComputedKeyIsReference(t *testing.T) {
	_, info := analyze(t, `var k = "a"; var o = {[k]: 1}; log(o[k]);`)
	b := findBinding(info, "k")
	if len(b.Refs) != 2 {
		t.Fatalf("k refs = %d, want 2 (computed key and bracket access)", len(b.Refs))
	}
}

func TestParamsAndDefaults(t *testing.T) {
	_, info := analyze(t, `var base = 10; function f(a, b = base, ...rest) { return a + b + rest.length; }`)
	for _, name := range []string{"a", "b", "rest"} {
		b := findBinding(info, name)
		if b == nil || b.Kind != BindParam {
			t.Fatalf("%s must be a param binding", name)
		}
	}
	bb := findBinding(info, "base")
	if len(bb.Refs) != 1 {
		t.Fatalf("base refs = %d, want 1 (the default)", len(bb.Refs))
	}
}

func TestDestructuringBindings(t *testing.T) {
	_, info := analyze(t, `const {a, b: renamed, c = 1, ...rest} = obj; use(a, renamed, c, rest);`)
	for _, name := range []string{"a", "renamed", "c", "rest"} {
		b := findBinding(info, name)
		if b == nil {
			t.Fatalf("%s not bound", name)
		}
		if b.Kind != BindConst {
			t.Fatalf("%s kind = %v, want const", name, b.Kind)
		}
		if len(b.Refs) != 1 {
			t.Fatalf("%s refs = %d, want 1", name, len(b.Refs))
		}
	}
	// `b` is a pattern key, not a binding.
	if bb := findBinding(info, "b"); bb != nil {
		t.Fatal("pattern key b must not be bound")
	}
}

func TestNamedFunctionExpressionSelfReference(t *testing.T) {
	_, info := analyze(t, `var fact = function rec(n) { return n <= 1 ? 1 : n * rec(n - 1); };`)
	b := findBinding(info, "rec")
	if b == nil {
		t.Fatal("rec must be bound inside the function expression")
	}
	if len(b.Refs) != 1 {
		t.Fatalf("rec refs = %d, want 1", len(b.Refs))
	}
}

func TestClassBinding(t *testing.T) {
	_, info := analyze(t, `class Widget {} var w = new Widget();`)
	b := findBinding(info, "Widget")
	if b == nil || b.Kind != BindClass {
		t.Fatal("Widget must be a class binding")
	}
	if len(b.Refs) != 1 {
		t.Fatalf("Widget refs = %d", len(b.Refs))
	}
}

func TestImportBindings(t *testing.T) {
	_, info := analyze(t, `import def, {named as local} from "mod"; use(def, local);`)
	for _, name := range []string{"def", "local"} {
		b := findBinding(info, name)
		if b == nil || b.Kind != BindImport {
			t.Fatalf("%s must be an import binding", name)
		}
		if len(b.Refs) != 1 {
			t.Fatalf("%s refs = %d", name, len(b.Refs))
		}
	}
}

func TestArrowParamScoping(t *testing.T) {
	_, info := analyze(t, `var x = 5; var f = x => x + 1; f(x);`)
	var param, outer *Binding
	for _, b := range info.Bindings {
		if b.Name == "x" {
			if b.Kind == BindParam {
				param = b
			} else {
				outer = b
			}
		}
	}
	if param == nil || outer == nil {
		t.Fatal("expected param and outer x bindings")
	}
	if len(param.Refs) != 1 {
		t.Fatalf("param x refs = %d, want 1", len(param.Refs))
	}
	if len(outer.Refs) != 1 {
		t.Fatalf("outer x refs = %d, want 1", len(outer.Refs))
	}
}

func TestLabelsNotReferences(t *testing.T) {
	_, info := analyze(t, `outer: for (;;) { break outer; }`)
	if len(info.Unresolved) != 0 {
		t.Fatalf("labels must not be references; unresolved = %v", info.Unresolved[0].Name)
	}
}

func TestInitTracked(t *testing.T) {
	_, info := analyze(t, `var table = ["a", "b", "c"]; use(table[0]);`)
	b := findBinding(info, "table")
	if b.Init == nil {
		t.Fatal("init must be tracked")
	}
	if _, ok := b.Init.(*ast.ArrayExpression); !ok {
		t.Fatalf("init type = %s", b.Init.NodeKind())
	}
}

func TestClassFieldValuesResolve(t *testing.T) {
	_, info := analyze(t, `
var initial = 5;
class Counter {
  count = initial;
  static origin = initial * 2;
}
new Counter();`)
	b := findBinding(info, "initial")
	if b == nil {
		t.Fatal("initial not bound")
	}
	if len(b.Refs) != 2 {
		t.Fatalf("initial refs = %d, want 2 (both field initializers)", len(b.Refs))
	}
	// Field keys are not variable references.
	for _, id := range info.Unresolved {
		if id.Name == "count" || id.Name == "origin" {
			t.Fatalf("field key %q must not be a reference", id.Name)
		}
	}
}
