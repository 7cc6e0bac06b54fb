package transform

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/js/ast"
)

// flattenControlFlow applies the obfuscator.io control-flow flattening
// transformation [23]: a straight-line statement sequence is moved into a
// single infinite loop whose flow is driven by a switch over a shuffled
// order string:
//
//	var _0xorder = "2|0|1".split("|"), _0xi = 0;
//	while (true) {
//	  switch (_0xorder[_0xi++]) {
//	  case "0": a(); continue;
//	  case "1": b(); continue;
//	  case "2": c(); continue;
//	  }
//	  break;
//	}
func flattenControlFlow(prog *ast.Program, rng *rand.Rand) {
	prog.Body = flattenList(prog.Body, rng)
	ast.Inspect(prog, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FunctionDeclaration:
			if v.Body != nil {
				v.Body.Body = flattenList(v.Body.Body, rng)
			}
		case *ast.FunctionExpression:
			if v.Body != nil {
				v.Body.Body = flattenList(v.Body.Body, rng)
			}
		case *ast.ArrowFunctionExpression:
			if blk, ok := v.Body.(*ast.BlockStatement); ok {
				blk.Body = flattenList(blk.Body, rng)
			}
		}
		return true
	})
}

// flattenList rewrites every maximal safe run of at least two flattenable
// statements into a dispatcher loop, the way obfuscator.io flattens each
// eligible sequence. Statements that hoist (declarations) or break out of
// the local flow (break/continue/labels) are left in place.
func flattenList(body []ast.Node, rng *rand.Rand) []ast.Node {
	out := make([]ast.Node, 0, len(body))
	i := 0
	for i < len(body) {
		if !flattenable(body[i]) {
			out = append(out, body[i])
			i++
			continue
		}
		j := i
		for j < len(body) && flattenable(body[j]) {
			j++
		}
		if j-i < 2 {
			out = append(out, body[i:j]...)
		} else {
			out = append(out, flattenRun(body[i:j], rng)...)
		}
		i = j
	}
	return out
}

// flattenRun turns one statement run into the order-string dispatcher.
func flattenRun(segment []ast.Node, rng *rand.Rand) []ast.Node {
	run := len(segment)

	orderVar := fmt.Sprintf("_0x%04x", rng.Intn(0x10000))
	idxVar := fmt.Sprintf("_0x%04x", rng.Intn(0x10000))
	for idxVar == orderVar {
		idxVar = fmt.Sprintf("_0x%04x", rng.Intn(0x10000))
	}

	// Statement i gets the randomly drawn label perm[i]; the dispatch string
	// lists the labels in original execution order, so the shuffled-looking
	// switch still executes the statements in their original sequence.
	labels := make([]string, run)
	perm := rng.Perm(run)
	for i := 0; i < run; i++ {
		labels[i] = strconv.Itoa(perm[i])
	}
	decl := &ast.VariableDeclaration{
		Kind: "var",
		Declarations: []*ast.VariableDeclarator{
			{
				ID: ast.NewIdentifier(orderVar),
				Init: &ast.CallExpression{
					Callee: &ast.MemberExpression{
						Object:   ast.NewString(strings.Join(labels, "|")),
						Property: ast.NewIdentifier("split"),
					},
					Arguments: []ast.Node{ast.NewString("|")},
				},
			},
			{ID: ast.NewIdentifier(idxVar), Init: ast.NewNumber(0)},
		},
	}

	sw := &ast.SwitchStatement{
		Discriminant: &ast.MemberExpression{
			Object: ast.NewIdentifier(orderVar),
			Property: &ast.UpdateExpression{
				Operator: "++",
				Argument: ast.NewIdentifier(idxVar),
			},
			Computed: true,
		},
	}
	// Cases appear sorted by label for extra confusion; each case holds one
	// original statement followed by `continue`.
	type caseEntry struct {
		label string
		stmt  ast.Node
	}
	entries := make([]caseEntry, run)
	for i, stmt := range segment {
		entries[i] = caseEntry{label: labels[i], stmt: stmt}
	}
	rng.Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
	for _, e := range entries {
		sw.Cases = append(sw.Cases, &ast.SwitchCase{
			Test:       ast.NewString(e.label),
			Consequent: []ast.Node{e.stmt, &ast.ContinueStatement{}},
		})
	}

	loop := &ast.WhileStatement{
		Test: ast.NewBool(true),
		Body: &ast.BlockStatement{Body: []ast.Node{sw, &ast.BreakStatement{}}},
	}
	return []ast.Node{decl, loop}
}

// flattenable reports whether a statement can move into a dispatcher case
// without changing semantics: no hoisted declarations, no lexical bindings
// needed later, and no break/continue that would capture the dispatcher.
func flattenable(n ast.Node) bool {
	switch v := n.(type) {
	case *ast.ExpressionStatement:
		return v.Directive == ""
	case *ast.ReturnStatement, *ast.ThrowStatement:
		return true
	case *ast.IfStatement:
		return !containsLocalBreakContinueOrDecl(v)
	default:
		return false
	}
}

// containsLocalBreakContinueOrDecl reports whether the subtree has a
// break/continue that would bind to the injected dispatcher loop, or a
// declaration whose scope would change.
func containsLocalBreakContinueOrDecl(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(c ast.Node) bool {
		switch c.(type) {
		case *ast.FunctionDeclaration, *ast.FunctionExpression, *ast.ArrowFunctionExpression:
			return false // their internals are isolated
		case *ast.WhileStatement, *ast.DoWhileStatement, *ast.ForStatement,
			*ast.ForInStatement, *ast.ForOfStatement, *ast.SwitchStatement:
			return false // break/continue inside bind locally
		case *ast.BreakStatement, *ast.ContinueStatement:
			found = true
			return false
		case *ast.VariableDeclaration:
			found = true
			return false
		}
		return true
	})
	return found
}
