package deobfuscate

import (
	"strings"

	"repro/internal/js/ast"
)

// unflatten reverses control-flow flattening: it recognizes the dispatcher
//
//	var ORDER = "2|0|1".split("|"), I = 0;
//	while (true) {
//	  switch (ORDER[I++]) {
//	  case "0": stmtA; continue;
//	  ...
//	  }
//	  break;
//	}
//
// and restores the statements in execution order.
func unflatten(prog *ast.Program, r *Report) {
	unflattenList(&prog.Body, r)
	ast.Inspect(prog, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FunctionDeclaration:
			if v.Body != nil {
				unflattenList(&v.Body.Body, r)
			}
		case *ast.FunctionExpression:
			if v.Body != nil {
				unflattenList(&v.Body.Body, r)
			}
		case *ast.ArrowFunctionExpression:
			if blk, ok := v.Body.(*ast.BlockStatement); ok {
				unflattenList(&blk.Body, r)
			}
		case *ast.BlockStatement:
			unflattenList(&v.Body, r)
		}
		return true
	})
}

func unflattenList(body *[]ast.Node, r *Report) {
	stmts := *body
	var out []ast.Node
	changed := false
	for i := 0; i < len(stmts); i++ {
		if i+1 < len(stmts) {
			if restored, ok := matchDispatcher(stmts[i], stmts[i+1]); ok {
				out = append(out, restored...)
				i++ // consumed the while loop too
				changed = true
				r.UnflattenedBlocks++
				continue
			}
		}
		out = append(out, stmts[i])
	}
	if changed {
		*body = out
	}
}

// matchDispatcher matches the declaration+loop pair and returns the
// statements in execution order.
func matchDispatcher(declStmt, loopStmt ast.Node) ([]ast.Node, bool) {
	decl, ok := declStmt.(*ast.VariableDeclaration)
	if !ok || len(decl.Declarations) != 2 {
		return nil, false
	}
	orderName, labels, ok := matchOrderDeclarator(decl.Declarations[0])
	if !ok {
		return nil, false
	}
	idxName, ok := matchZeroDeclarator(decl.Declarations[1])
	if !ok {
		return nil, false
	}

	loop, ok := loopStmt.(*ast.WhileStatement)
	if !ok {
		return nil, false
	}
	test, ok := loop.Test.(*ast.Literal)
	if !ok || test.Kind != ast.LiteralBoolean || !test.Bool {
		return nil, false
	}
	blk, ok := loop.Body.(*ast.BlockStatement)
	if !ok || len(blk.Body) != 2 {
		return nil, false
	}
	sw, ok := blk.Body[0].(*ast.SwitchStatement)
	if !ok {
		return nil, false
	}
	if _, ok := blk.Body[1].(*ast.BreakStatement); !ok {
		return nil, false
	}
	if !matchDiscriminant(sw.Discriminant, orderName, idxName) {
		return nil, false
	}

	// Map case label → statement (each case must be [stmt, continue]).
	byLabel := make(map[string]ast.Node, len(sw.Cases))
	for _, c := range sw.Cases {
		lit, ok := c.Test.(*ast.Literal)
		if !ok || lit.Kind != ast.LiteralString {
			return nil, false
		}
		if len(c.Consequent) != 2 {
			return nil, false
		}
		if _, ok := c.Consequent[1].(*ast.ContinueStatement); !ok {
			return nil, false
		}
		byLabel[lit.String] = c.Consequent[0]
	}

	out := make([]ast.Node, 0, len(labels))
	for _, label := range labels {
		stmt, ok := byLabel[label]
		if !ok {
			return nil, false
		}
		out = append(out, stmt)
	}
	return out, true
}

// matchOrderDeclarator matches `X = "a|b|c".split("|")` and returns X plus
// the labels in order.
func matchOrderDeclarator(d *ast.VariableDeclarator) (string, []string, bool) {
	id, ok := d.ID.(*ast.Identifier)
	if !ok {
		return "", nil, false
	}
	call, ok := d.Init.(*ast.CallExpression)
	if !ok || len(call.Arguments) != 1 {
		return "", nil, false
	}
	m, ok := call.Callee.(*ast.MemberExpression)
	if !ok || m.Computed || !isIdent(m.Property, "split") {
		return "", nil, false
	}
	lit, ok := m.Object.(*ast.Literal)
	if !ok || lit.Kind != ast.LiteralString {
		return "", nil, false
	}
	sep, ok := call.Arguments[0].(*ast.Literal)
	if !ok || sep.Kind != ast.LiteralString || sep.String != "|" {
		return "", nil, false
	}
	return id.Name, strings.Split(lit.String, "|"), true
}

// matchZeroDeclarator matches `I = 0`.
func matchZeroDeclarator(d *ast.VariableDeclarator) (string, bool) {
	id, ok := d.ID.(*ast.Identifier)
	if !ok {
		return "", false
	}
	n, ok := numLit(d.Init)
	if !ok || n != 0 {
		return "", false
	}
	return id.Name, true
}

// matchDiscriminant matches `ORDER[I++]`.
func matchDiscriminant(n ast.Node, orderName, idxName string) bool {
	m, ok := n.(*ast.MemberExpression)
	if !ok || !m.Computed || !isIdent(m.Object, orderName) {
		return false
	}
	upd, ok := m.Property.(*ast.UpdateExpression)
	if !ok || upd.Operator != "++" || upd.Prefix {
		return false
	}
	return isIdent(upd.Argument, idxName)
}

// ---------------------------------------------------------------------------
// Dead-branch pruning
// ---------------------------------------------------------------------------

// pruneDeadBranches removes branches with statically false tests: literal
// false, constant numeric/string comparisons, and `while (<false>) ...`
// loops (the dead-code injection traces).
func pruneDeadBranches(prog *ast.Program, r *Report) {
	ast.Rewrite(prog, func(n ast.Node) ast.Node {
		switch v := n.(type) {
		case *ast.IfStatement:
			verdict, known := constBool(v.Test)
			if !known {
				return n
			}
			r.PrunedBranches++
			if verdict {
				return v.Consequent
			}
			if v.Alternate != nil {
				return v.Alternate
			}
			return &ast.EmptyStatement{}
		case *ast.WhileStatement:
			if verdict, known := constBool(v.Test); known && !verdict {
				r.PrunedBranches++
				return &ast.EmptyStatement{}
			}
		}
		return n
	})
	// Drop the EmptyStatements left behind.
	stripEmpty(&prog.Body)
	ast.Inspect(prog, func(n ast.Node) bool {
		if blk, ok := n.(*ast.BlockStatement); ok {
			stripEmpty(&blk.Body)
		}
		return true
	})
}

func stripEmpty(body *[]ast.Node) {
	var out []ast.Node
	for _, s := range *body {
		if _, ok := s.(*ast.EmptyStatement); ok {
			continue
		}
		out = append(out, s)
	}
	*body = out
}

// constBool statically evaluates comparison tests over literals.
func constBool(n ast.Node) (value, known bool) {
	switch v := n.(type) {
	case *ast.Literal:
		switch v.Kind {
		case ast.LiteralBoolean:
			return v.Bool, true
		case ast.LiteralNumber:
			return v.Number != 0, true
		case ast.LiteralString:
			return v.String != "", true
		case ast.LiteralNull:
			return false, true
		}
	case *ast.BinaryExpression:
		l, lok := literalValue(v.Left)
		rv, rok := literalValue(v.Right)
		if !lok || !rok {
			return false, false
		}
		switch v.Operator {
		case "===", "==":
			return l == rv, true
		case "!==", "!=":
			return l != rv, true
		case "<":
			ln, lo := l.(float64)
			rn, ro := rv.(float64)
			if lo && ro {
				return ln < rn, true
			}
		case ">":
			ln, lo := l.(float64)
			rn, ro := rv.(float64)
			if lo && ro {
				return ln > rn, true
			}
		}
	}
	return false, false
}

// literalValue evaluates literals and constant arithmetic to comparable Go
// values.
func literalValue(n ast.Node) (any, bool) {
	switch v := n.(type) {
	case *ast.Literal:
		switch v.Kind {
		case ast.LiteralNumber:
			return v.Number, true
		case ast.LiteralString:
			return v.String, true
		case ast.LiteralBoolean:
			return v.Bool, true
		}
	case *ast.BinaryExpression:
		l, lok := literalValue(v.Left)
		r, rok := literalValue(v.Right)
		if !lok || !rok {
			return nil, false
		}
		ln, lo := l.(float64)
		rn, ro := r.(float64)
		if !lo || !ro {
			return nil, false
		}
		switch v.Operator {
		case "+":
			return ln + rn, true
		case "-":
			return ln - rn, true
		case "*":
			return ln * rn, true
		}
	}
	return nil, false
}

// ---------------------------------------------------------------------------
// Cosmetic passes
// ---------------------------------------------------------------------------

// rewriteBracketsToDots turns a["prop"] into a.prop when prop is a valid
// identifier (reversing obfuscated field references).
func rewriteBracketsToDots(prog *ast.Program, r *Report) {
	ast.Rewrite(prog, func(n ast.Node) ast.Node {
		m, ok := n.(*ast.MemberExpression)
		if !ok || !m.Computed {
			return n
		}
		lit, ok := m.Property.(*ast.Literal)
		if !ok || lit.Kind != ast.LiteralString || !isValidIdentName(lit.String) {
			return n
		}
		r.DottedAccesses++
		return &ast.MemberExpression{
			Object:   m.Object,
			Property: ast.NewIdentifier(lit.String),
			Optional: m.Optional,
		}
	})
}

var jsReserved = map[string]bool{
	"break": true, "case": true, "catch": true, "class": true, "const": true,
	"continue": true, "debugger": true, "default": true, "delete": true,
	"do": true, "else": true, "export": true, "extends": true, "finally": true,
	"for": true, "function": true, "if": true, "import": true, "in": true,
	"instanceof": true, "new": true, "return": true, "super": true,
	"switch": true, "this": true, "throw": true, "try": true, "typeof": true,
	"var": true, "void": true, "while": true, "with": true, "yield": true,
	"let": true, "true": true, "false": true, "null": true,
}

func isValidIdentName(s string) bool {
	if s == "" || jsReserved[s] {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		letter := c == '$' || c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
		digit := c >= '0' && c <= '9'
		if i == 0 && !letter {
			return false
		}
		if !letter && !digit {
			return false
		}
	}
	return true
}

// renameHexIdentifiers renames obfuscator-style hex names (_0x3fa2c1) to
// sequential readable names (v1, v2, ...), preserving scoping via the
// binding analysis.
func renameHexIdentifiers(prog *ast.Program, r *Report) {
	renamed := renameMatching(prog, func(name string) bool {
		return strings.HasPrefix(name, "_0x") || strings.HasPrefix(name, "_f")
	})
	r.RenamedIdents += renamed
}
