package walker

import (
	"testing"

	"repro/internal/js/ast"
	"repro/internal/js/parser"
)

func mustParse(t *testing.T, src string) *ast.Program {
	t.Helper()
	prog, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return prog
}

func TestWalkVisitsEveryNode(t *testing.T) {
	prog := mustParse(t, `function f(a) { return a + 1; } f(2);`)
	var types []string
	Walk(prog, func(n ast.Node, _ int) bool {
		types = append(types, n.Type())
		return true
	})
	want := map[string]bool{
		"Program": true, "FunctionDeclaration": true, "Identifier": true,
		"BlockStatement": true, "ReturnStatement": true, "BinaryExpression": true,
		"Literal": true, "ExpressionStatement": true, "CallExpression": true,
	}
	seen := make(map[string]bool)
	for _, ty := range types {
		seen[ty] = true
	}
	for ty := range want {
		if !seen[ty] {
			t.Fatalf("node type %s not visited; saw %v", ty, types)
		}
	}
}

func TestWalkSkipsChildren(t *testing.T) {
	prog := mustParse(t, `function f() { inner(); } outer();`)
	var calls int
	Walk(prog, func(n ast.Node, _ int) bool {
		if _, ok := n.(*ast.FunctionDeclaration); ok {
			return false // skip the function subtree
		}
		if _, ok := n.(*ast.CallExpression); ok {
			calls++
		}
		return true
	})
	if calls != 1 {
		t.Fatalf("calls = %d, want only the outer one", calls)
	}
}

func TestRewriteReplacesLiterals(t *testing.T) {
	prog := mustParse(t, `var x = 1 + 2;`)
	Rewrite(prog, func(n ast.Node) ast.Node {
		if lit, ok := n.(*ast.Literal); ok && lit.Kind == ast.LiteralNumber {
			return ast.NewNumber(lit.Number * 10)
		}
		return n
	})
	decl := prog.Body[0].(*ast.VariableDeclaration)
	bin := decl.Declarations[0].Init.(*ast.BinaryExpression)
	if bin.Left.(*ast.Literal).Number != 10 || bin.Right.(*ast.Literal).Number != 20 {
		t.Fatal("literals not rewritten")
	}
}

func TestRewriteBottomUp(t *testing.T) {
	// Children are rewritten before parents: a parent rewriter must see the
	// already-rewritten children.
	prog := mustParse(t, `var x = 1 + 2;`)
	Rewrite(prog, func(n ast.Node) ast.Node {
		switch v := n.(type) {
		case *ast.Literal:
			return ast.NewNumber(5)
		case *ast.BinaryExpression:
			l := v.Left.(*ast.Literal)
			r := v.Right.(*ast.Literal)
			if l.Number != 5 || r.Number != 5 {
				t.Fatal("parent rewriter saw stale children")
			}
			return ast.NewNumber(l.Number + r.Number)
		}
		return n
	})
	decl := prog.Body[0].(*ast.VariableDeclaration)
	if decl.Declarations[0].Init.(*ast.Literal).Number != 10 {
		t.Fatal("rewrite result not propagated")
	}
}

func TestRewriteStatementReplacement(t *testing.T) {
	prog := mustParse(t, `if (a) { b(); }`)
	Rewrite(prog, func(n ast.Node) ast.Node {
		if _, ok := n.(*ast.IfStatement); ok {
			return &ast.EmptyStatement{}
		}
		return n
	})
	if _, ok := prog.Body[0].(*ast.EmptyStatement); !ok {
		t.Fatalf("statement not replaced: %s", prog.Body[0].Type())
	}
}

func TestRewritePreservesHoles(t *testing.T) {
	prog := mustParse(t, `var a = [1, , 3];`)
	Rewrite(prog, func(n ast.Node) ast.Node { return n })
	arr := prog.Body[0].(*ast.VariableDeclaration).Declarations[0].Init.(*ast.ArrayExpression)
	if len(arr.Elements) != 3 || arr.Elements[1] != nil {
		t.Fatal("array hole lost")
	}
}
