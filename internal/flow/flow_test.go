package flow

import (
	"testing"
	"time"

	"repro/internal/js/ast"
	"repro/internal/js/parser"
)

func build(t *testing.T, src string) *Graph {
	t.Helper()
	prog, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return NewSession().Build(prog, Options{})
}

func TestSequentialControlFlow(t *testing.T) {
	g := build(t, "a();\nb();\nc();")
	// Program→a, a→b, b→c.
	if len(g.Control) < 3 {
		t.Fatalf("control edges = %d, want >= 3", len(g.Control))
	}
	first := g.Control[0]
	if _, ok := first.From.(*ast.Program); !ok {
		t.Fatalf("first edge must start at Program, got %s", first.From.Type())
	}
}

func TestBranchEdges(t *testing.T) {
	g := build(t, "if (x) { a(); } else { b(); }")
	var ifNode ast.Node
	branchTargets := 0
	for _, e := range g.Control {
		if _, ok := e.From.(*ast.IfStatement); ok {
			ifNode = e.From
			branchTargets++
		}
	}
	if ifNode == nil || branchTargets != 2 {
		t.Fatalf("if statement must have 2 outgoing branch edges, got %d", branchTargets)
	}
}

func TestLoopBackEdge(t *testing.T) {
	g := build(t, "while (x) { tick(); }")
	seenBack := false
	for _, e := range g.Control {
		if _, ok := e.To.(*ast.WhileStatement); ok {
			if _, ok := e.From.(*ast.BlockStatement); ok {
				seenBack = true
			}
		}
	}
	if !seenBack {
		t.Fatal("missing loop back edge")
	}
}

func TestConditionalExpressionInControlFlow(t *testing.T) {
	g := build(t, "var x = cond ? a() : b();")
	found := 0
	for _, e := range g.Control {
		if _, ok := e.From.(*ast.ConditionalExpression); ok {
			found++
		}
	}
	if found != 2 {
		t.Fatalf("ternary must contribute 2 control edges, got %d", found)
	}
}

func TestTryCatchEdges(t *testing.T) {
	g := build(t, "try { risky(); } catch (e) { recover(); } finally { done(); }")
	var toHandler, toFinalizer bool
	for _, e := range g.Control {
		if _, ok := e.From.(*ast.TryStatement); ok {
			if _, ok := e.To.(*ast.CatchClause); ok {
				toHandler = true
			}
			if blk, ok := e.To.(*ast.BlockStatement); ok && len(blk.Body) == 1 {
				toFinalizer = true
			}
		}
	}
	if !toHandler {
		t.Fatal("missing try→catch edge")
	}
	if !toFinalizer {
		t.Fatal("missing try→finally edge")
	}
}

func TestDataFlowEdges(t *testing.T) {
	g := build(t, "var x = 1;\nvar y = x + x;\nconsole.log(y);")
	// x def→use ×2, y def→use ×1.
	if len(g.Data) != 3 {
		t.Fatalf("data edges = %d, want 3", len(g.Data))
	}
	for _, e := range g.Data {
		if _, ok := e.From.(*ast.Identifier); !ok {
			t.Fatal("data edge source must be an Identifier")
		}
		if _, ok := e.To.(*ast.Identifier); !ok {
			t.Fatal("data edge target must be an Identifier")
		}
	}
}

func TestDataFlowScoping(t *testing.T) {
	g := build(t, `
var x = 1;
function f() {
  var x = 2;
  return x;
}
use(x);`)
	// Outer x: 1 use; inner x: 1 use. No cross-scope edges.
	if len(g.Data) != 2 {
		t.Fatalf("data edges = %d, want 2", len(g.Data))
	}
}

func TestDataFlowDeadline(t *testing.T) {
	prog, err := parser.ParseProgram("var x = 1; use(x);")
	if err != nil {
		t.Fatal(err)
	}
	// A generous deadline must not trigger the fallback.
	g := NewSession().Build(prog, Options{DataFlowDeadline: time.Minute})
	if g.DataFlowTimedOut {
		t.Fatal("deadline must not fire on a tiny file")
	}
	if len(g.Data) == 0 {
		t.Fatal("expected data edges")
	}
}

func TestFunctionBodiesWired(t *testing.T) {
	g := build(t, "var f = function () { a(); b(); };")
	// The function expression body must have sequential edges.
	seen := false
	for _, e := range g.Control {
		if _, ok := e.From.(*ast.FunctionExpression); ok {
			seen = true
		}
	}
	if !seen {
		t.Fatal("function expression body must join the control flow")
	}
}
