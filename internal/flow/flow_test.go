package flow

import (
	"testing"

	"repro/internal/js/parser"
)

// wantCounts builds src and requires exactly control control edges and data
// data edges. The expected numbers are worked out by hand in each test; the
// reference builders must agree with them too, so a snippet's count pins
// the reference as well as the fused walk.
func wantCounts(t *testing.T, src string, control, data int) {
	t.Helper()
	prog, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if rc, rd := refCounts(prog); rc != control || rd != data {
		t.Fatalf("reference counts (%d control, %d data), want (%d, %d)", rc, rd, control, data)
	}
	g := NewSession().Build(prog)
	if g.ControlEdges != control {
		t.Errorf("control edges = %d, want %d", g.ControlEdges, control)
	}
	if g.DataEdges != data {
		t.Errorf("data edges = %d, want %d", g.DataEdges, data)
	}
}

func TestSequentialControlFlow(t *testing.T) {
	// Program→a, a→b, b→c.
	wantCounts(t, "a();\nb();\nc();", 3, 0)
}

func TestBranchEdges(t *testing.T) {
	// Program→if, if→consequent, if→alternate, and each block→its call.
	wantCounts(t, "if (x) { a(); } else { b(); }", 5, 0)
}

func TestLoopBackEdge(t *testing.T) {
	// Program→while, while→body, body→tick(), and the body→while back edge.
	wantCounts(t, "while (x) { tick(); }", 4, 0)
	wantCounts(t, "do { tick(); } while (x);", 4, 0)
}

func TestConditionalExpressionInControlFlow(t *testing.T) {
	// Program→var, plus ternary→consequent and ternary→alternate.
	wantCounts(t, "var x = cond ? a() : b();", 3, 0)
}

func TestTryCatchEdges(t *testing.T) {
	// Program→try; try→block→risky(); try→handler→handler body→recover();
	// try→finalizer→done().
	wantCounts(t, "try { risky(); } catch (e) { recover(); } finally { done(); }", 8, 0)
}

func TestDataFlowEdges(t *testing.T) {
	// x def→use ×2, y def→use ×1; three sequential statements.
	wantCounts(t, "var x = 1;\nvar y = x + x;\nconsole.log(y);", 3, 3)
}

func TestDataFlowScoping(t *testing.T) {
	// Outer x: 1 use; inner x: 1 use. No cross-scope edges. Control:
	// Program→var→f→use(x), f→body→var→return.
	wantCounts(t, `
var x = 1;
function f() {
  var x = 2;
  return x;
}
use(x);`, 6, 2)
}

func TestFunctionBodiesWired(t *testing.T) {
	// Program→var; the function expression joins the control flow:
	// fn→body→a()→b().
	wantCounts(t, "var f = function () { a(); b(); };", 4, 0)
}
