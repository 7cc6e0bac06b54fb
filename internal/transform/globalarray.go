package transform

import (
	"fmt"
	"math/rand"

	"repro/internal/js/ast"
)

// applyGlobalArray hoists every string literal into one global array and
// replaces each occurrence with an indexed fetch, the classic obfuscator.io
// "string array" transformation. An accessor function adds one indirection:
//
//	var _0xod31 = ["log", "hello", ...];
//	function _0xf1(i) { return _0xod31[i - 391]; }
//	console[_0xf1(391)](_0xf1(392));
func applyGlobalArray(prog *ast.Program, rng *rand.Rand) {
	arrayName := fmt.Sprintf("_0x%04x", rng.Intn(0x10000))
	accessorName := fmt.Sprintf("_0x%04x", rng.Intn(0x10000))
	for accessorName == arrayName {
		accessorName = fmt.Sprintf("_0x%04x", rng.Intn(0x10000))
	}
	offset := 100 + rng.Intn(900)

	skip := literalsToKeep(prog)
	var table []string
	index := make(map[string]int)

	ast.Rewrite(prog, func(n ast.Node) ast.Node {
		lit, ok := n.(*ast.Literal)
		if !ok || lit.Kind != ast.LiteralString || skip[lit] {
			return n
		}
		idx, seen := index[lit.String]
		if !seen {
			idx = len(table)
			index[lit.String] = idx
			table = append(table, lit.String)
		}
		return &ast.CallExpression{
			Callee:    ast.NewIdentifier(accessorName),
			Arguments: []ast.Node{ast.NewNumber(float64(idx + offset))},
		}
	})
	if len(table) == 0 {
		// No strings to hoist; still plant an (empty) array so the trace of
		// the technique is present.
		table = append(table, "")
	}

	arr := &ast.ArrayExpression{}
	for _, s := range table {
		arr.Elements = append(arr.Elements, ast.NewString(s))
	}
	decl := &ast.VariableDeclaration{
		Kind: "var",
		Declarations: []*ast.VariableDeclarator{
			{ID: ast.NewIdentifier(arrayName), Init: arr},
		},
	}
	accessor := &ast.FunctionDeclaration{
		ID:     ast.NewIdentifier(accessorName),
		Params: []ast.Node{ast.NewIdentifier("i")},
		Body: &ast.BlockStatement{Body: []ast.Node{
			&ast.ReturnStatement{Argument: &ast.MemberExpression{
				Object: ast.NewIdentifier(arrayName),
				Property: &ast.BinaryExpression{
					Operator: "-",
					Left:     ast.NewIdentifier("i"),
					Right:    ast.NewNumber(float64(offset)),
				},
				Computed: true,
			}},
		}},
	}
	insertAfterDirectives(prog, decl, accessor)
}

// insertAfterDirectives prepends statements to the program body, keeping any
// directive prologue ("use strict") first.
func insertAfterDirectives(prog *ast.Program, stmts ...ast.Node) {
	cut := 0
	for cut < len(prog.Body) {
		es, ok := prog.Body[cut].(*ast.ExpressionStatement)
		if !ok || es.Directive == "" {
			break
		}
		cut++
	}
	body := make([]ast.Node, 0, len(prog.Body)+len(stmts))
	body = append(body, prog.Body[:cut]...)
	body = append(body, stmts...)
	body = append(body, prog.Body[cut:]...)
	prog.Body = body
}
