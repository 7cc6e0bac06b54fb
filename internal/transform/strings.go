package transform

import (
	"encoding/base64"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/js/ast"
)

// obfuscateStrings rewrites string literals so they no longer appear in
// plain text, mixing the techniques of gnirts (split/concat/reverse, no
// encoding escape) and our custom-encoding tool (percent and base64
// encodings), per Section II-B.
func obfuscateStrings(prog *ast.Program, rng *rand.Rand) {
	skip := literalsToKeep(prog)
	ast.Rewrite(prog, func(n ast.Node) ast.Node {
		lit, ok := n.(*ast.Literal)
		if !ok || lit.Kind != ast.LiteralString || skip[lit] {
			return n
		}
		s := lit.String
		if len(s) < 2 {
			return n
		}
		switch rng.Intn(5) {
		case 0:
			return splitConcat(s, rng)
		case 1:
			return fromCharCode(s)
		case 2:
			return reverseJoin(s)
		case 3:
			return percentDecode(s)
		default:
			return base64Decode(s)
		}
	})
	// Directive prologues must stay literal; Rewrite never touches them
	// because ExpressionStatement directives wrap Literal nodes that were
	// replaced — restore plain "use strict" style directives.
	for _, stmt := range prog.Body {
		es, ok := stmt.(*ast.ExpressionStatement)
		if !ok || es.Directive == "" {
			continue
		}
		es.Expression = ast.NewString(es.Directive)
	}
}

// literalsToKeep marks string literals that must remain literal: property
// keys in non-computed position, module sources, and directive prologues.
func literalsToKeep(prog *ast.Program) map[*ast.Literal]bool {
	skip := make(map[*ast.Literal]bool)
	keep := func(n ast.Node) {
		if lit, ok := n.(*ast.Literal); ok {
			skip[lit] = true
		}
	}
	ast.Inspect(prog, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.Property:
			if !v.Computed {
				keep(v.Key)
			}
		case *ast.MethodDefinition:
			if !v.Computed {
				keep(v.Key)
			}
		case *ast.ImportDeclaration:
			if v.Source != nil {
				skip[v.Source] = true
			}
		case *ast.ExportNamedDeclaration:
			if v.Source != nil {
				skip[v.Source] = true
			}
		case *ast.ExportAllDeclaration:
			if v.Source != nil {
				skip[v.Source] = true
			}
		case *ast.ExpressionStatement:
			if v.Directive != "" {
				keep(v.Expression)
			}
		case *ast.CallExpression:
			// `require("mod")` arguments must stay literal for bundlers.
			if id, ok := v.Callee.(*ast.Identifier); ok && id.Name == "require" && len(v.Arguments) == 1 {
				keep(v.Arguments[0])
			}
		}
		return true
	})
	return skip
}

// splitConcat turns "hello world" into "hel" + "lo w" + "orld".
func splitConcat(s string, rng *rand.Rand) ast.Node {
	runes := []rune(s)
	var parts []string
	for len(runes) > 0 {
		n := 1 + rng.Intn(4)
		if n > len(runes) {
			n = len(runes)
		}
		parts = append(parts, string(runes[:n]))
		runes = runes[n:]
	}
	if len(parts) == 1 {
		parts = append(parts, "")
	}
	var expr ast.Node = ast.NewString(parts[0])
	for _, part := range parts[1:] {
		expr = &ast.BinaryExpression{Operator: "+", Left: expr, Right: ast.NewString(part)}
	}
	return expr
}

// fromCharCode turns "hi" into String.fromCharCode(104, 105).
func fromCharCode(s string) ast.Node {
	call := &ast.CallExpression{
		Callee: &ast.MemberExpression{
			Object:   ast.NewIdentifier("String"),
			Property: ast.NewIdentifier("fromCharCode"),
		},
	}
	for _, r := range s {
		call.Arguments = append(call.Arguments, ast.NewNumber(float64(r)))
	}
	return call
}

// reverseJoin turns "abc" into "cba".split("").reverse().join("").
func reverseJoin(s string) ast.Node {
	runes := []rune(s)
	for l, r := 0, len(runes)-1; l < r; l, r = l+1, r-1 {
		runes[l], runes[r] = runes[r], runes[l]
	}
	split := &ast.CallExpression{
		Callee: &ast.MemberExpression{
			Object:   ast.NewString(string(runes)),
			Property: ast.NewIdentifier("split"),
		},
		Arguments: []ast.Node{ast.NewString("")},
	}
	reverse := &ast.CallExpression{
		Callee: &ast.MemberExpression{Object: split, Property: ast.NewIdentifier("reverse")},
	}
	return &ast.CallExpression{
		Callee:    &ast.MemberExpression{Object: reverse, Property: ast.NewIdentifier("join")},
		Arguments: []ast.Node{ast.NewString("")},
	}
}

// percentDecode turns "hi" into decodeURIComponent("%68%69").
func percentDecode(s string) ast.Node {
	var sb strings.Builder
	for _, b := range []byte(s) {
		fmt.Fprintf(&sb, "%%%02x", b)
	}
	return &ast.CallExpression{
		Callee:    ast.NewIdentifier("decodeURIComponent"),
		Arguments: []ast.Node{ast.NewString(sb.String())},
	}
}

// base64Decode turns "hi" into atob("aGk=").
func base64Decode(s string) ast.Node {
	return &ast.CallExpression{
		Callee:    ast.NewIdentifier("atob"),
		Arguments: []ast.Node{ast.NewString(base64.StdEncoding.EncodeToString([]byte(s)))},
	}
}
