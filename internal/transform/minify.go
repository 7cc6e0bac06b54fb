package transform

import (
	"math"
	"math/rand"

	"repro/internal/js/ast"
)

// minifySimple performs the basic techniques of the JavaScript Minifier tool
// (Section II-B): whitespace and comment removal (done by compact printing),
// variable-name shortening, and removal of obviously dead code.
func minifySimple(prog *ast.Program, _ *rand.Rand) {
	shortenIdentifiers(prog)
	removeUnreachable(prog)
}

// minifyAdvanced performs the additional Google-closure-compiler-style
// optimizations: constant folding, boolean and undefined shortening,
// if-to-ternary and if-to-logical conversion, consecutive var merging, and
// dead-branch elimination.
func minifyAdvanced(prog *ast.Program, rng *rand.Rand) {
	foldConstants(prog)
	shortenLiterals(prog)
	convertIfs(prog)
	removeDeadBranches(prog)
	removeUnreachable(prog)
	mergeVarRuns(prog)
	shortenIdentifiers(prog)
	_ = rng
}

// removeUnreachable drops statements that follow a return/throw/break/
// continue in the same block.
func removeUnreachable(prog *ast.Program) {
	ast.Inspect(prog, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.BlockStatement:
			v.Body = truncateAfterJump(v.Body)
		case *ast.Program:
			v.Body = truncateAfterJump(v.Body)
		}
		return true
	})
}

func truncateAfterJump(body []ast.Node) []ast.Node {
	for i, s := range body {
		switch s.(type) {
		case *ast.ReturnStatement, *ast.ThrowStatement, *ast.BreakStatement, *ast.ContinueStatement:
			// Keep declarations after the jump (they hoist); drop the rest.
			var kept []ast.Node
			for _, rest := range body[i+1:] {
				switch rest.(type) {
				case *ast.FunctionDeclaration, *ast.VariableDeclaration, *ast.ClassDeclaration:
					kept = append(kept, rest)
				}
			}
			return append(body[:i+1], kept...)
		}
	}
	return body
}

// foldConstants evaluates constant numeric and string expressions.
func foldConstants(prog *ast.Program) {
	ast.Rewrite(prog, func(n ast.Node) ast.Node {
		switch v := n.(type) {
		case *ast.BinaryExpression:
			if folded := foldBinary(v); folded != nil {
				return folded
			}
		case *ast.UnaryExpression:
			if folded := foldUnary(v); folded != nil {
				return folded
			}
		}
		return n
	})
}

func numLit(n ast.Node) (float64, bool) {
	lit, ok := n.(*ast.Literal)
	if !ok || lit.Kind != ast.LiteralNumber {
		return 0, false
	}
	return lit.Number, true
}

func strLit(n ast.Node) (string, bool) {
	lit, ok := n.(*ast.Literal)
	if !ok || lit.Kind != ast.LiteralString {
		return "", false
	}
	return lit.String, true
}

func foldBinary(v *ast.BinaryExpression) ast.Node {
	if ls, ok := strLit(v.Left); ok {
		if rs, ok := strLit(v.Right); ok && v.Operator == "+" {
			return ast.NewString(ls + rs)
		}
	}
	l, lok := numLit(v.Left)
	r, rok := numLit(v.Right)
	if !lok || !rok {
		return nil
	}
	var out float64
	switch v.Operator {
	case "+":
		out = l + r
	case "-":
		out = l - r
	case "*":
		out = l * r
	case "/":
		if r == 0 {
			return nil
		}
		out = l / r
	case "%":
		if r == 0 {
			return nil
		}
		out = math.Mod(l, r)
	case "**":
		out = math.Pow(l, r)
	case "&":
		out = float64(toInt32(l) & toInt32(r))
	case "|":
		out = float64(toInt32(l) | toInt32(r))
	case "^":
		out = float64(toInt32(l) ^ toInt32(r))
	case "<<":
		out = float64(toInt32(l) << (uint32(toInt32(r)) & 31))
	case ">>":
		out = float64(toInt32(l) >> (uint32(toInt32(r)) & 31))
	default:
		return nil
	}
	if math.IsNaN(out) || math.IsInf(out, 0) || out != out {
		return nil
	}
	// Only fold when the result does not lose precision.
	if math.Abs(out) > 1e15 {
		return nil
	}
	if out < 0 {
		return &ast.UnaryExpression{Operator: "-", Argument: ast.NewNumber(-out)}
	}
	return ast.NewNumber(out)
}

func toInt32(f float64) int32 {
	return int32(uint32(int64(f)))
}

func foldUnary(v *ast.UnaryExpression) ast.Node {
	switch v.Operator {
	case "!":
		if lit, ok := v.Argument.(*ast.Literal); ok && lit.Kind == ast.LiteralBoolean {
			return ast.NewBool(!lit.Bool)
		}
	case "-":
		// Leave negative literals to the printer.
	case "typeof":
		if lit, ok := v.Argument.(*ast.Literal); ok {
			switch lit.Kind {
			case ast.LiteralString:
				return ast.NewString("string")
			case ast.LiteralNumber:
				return ast.NewString("number")
			case ast.LiteralBoolean:
				return ast.NewString("boolean")
			}
		}
	}
	return nil
}

// shortenLiterals rewrites true/false as !0/!1 and undefined as void 0, the
// classic closure-compiler shortcuts.
func shortenLiterals(prog *ast.Program) {
	skip := literalsToKeep(prog)
	ast.Rewrite(prog, func(n ast.Node) ast.Node {
		switch v := n.(type) {
		case *ast.Literal:
			if v.Kind == ast.LiteralBoolean && !skip[v] {
				num := 0.0
				if !v.Bool {
					num = 1.0
				}
				return &ast.UnaryExpression{Operator: "!", Argument: ast.NewNumber(num)}
			}
		case *ast.Identifier:
			if v.Name == "undefined" {
				return &ast.UnaryExpression{Operator: "void", Argument: ast.NewNumber(0)}
			}
		}
		return n
	})
}

// convertIfs replaces if statements with the conditional-operator or
// logical-operator shortcuts where possible [32]:
//
//	if (c) a(); else b();   →  c ? a() : b();
//	if (c) a();             →  c && a();
//	if (c) x = 1; else x = 2; → x = c ? 1 : 2;
func convertIfs(prog *ast.Program) {
	ast.Rewrite(prog, func(n ast.Node) ast.Node {
		v, ok := n.(*ast.IfStatement)
		if !ok {
			return n
		}
		cons := soleExpression(v.Consequent)
		if cons == nil {
			return n
		}
		if v.Alternate == nil {
			return &ast.ExpressionStatement{Expression: &ast.LogicalExpression{
				Operator: "&&", Left: v.Test, Right: cons,
			}}
		}
		alt := soleExpression(v.Alternate)
		if alt == nil {
			return n
		}
		// Same-target assignments merge into one.
		if ca, ok := cons.(*ast.AssignmentExpression); ok && ca.Operator == "=" {
			if aa, ok := alt.(*ast.AssignmentExpression); ok && aa.Operator == "=" {
				if sameSimpleTarget(ca.Left, aa.Left) {
					return &ast.ExpressionStatement{Expression: &ast.AssignmentExpression{
						Operator: "=",
						Left:     ca.Left,
						Right: &ast.ConditionalExpression{
							Test: v.Test, Consequent: ca.Right, Alternate: aa.Right,
						},
					}}
				}
			}
		}
		return &ast.ExpressionStatement{Expression: &ast.ConditionalExpression{
			Test: v.Test, Consequent: cons, Alternate: alt,
		}}
	})
}

// soleExpression unwraps a statement that consists of exactly one
// expression; it returns nil otherwise.
func soleExpression(n ast.Node) ast.Node {
	switch v := n.(type) {
	case *ast.ExpressionStatement:
		if v.Directive != "" {
			return nil
		}
		return v.Expression
	case *ast.BlockStatement:
		if len(v.Body) == 1 {
			return soleExpression(v.Body[0])
		}
	}
	return nil
}

func sameSimpleTarget(a, b ast.Node) bool {
	ai, ok1 := a.(*ast.Identifier)
	bi, ok2 := b.(*ast.Identifier)
	return ok1 && ok2 && ai.Name == bi.Name
}

// removeDeadBranches eliminates branches with constant tests.
func removeDeadBranches(prog *ast.Program) {
	ast.Rewrite(prog, func(n ast.Node) ast.Node {
		v, ok := n.(*ast.IfStatement)
		if !ok {
			return n
		}
		lit, ok := v.Test.(*ast.Literal)
		if !ok || lit.Kind != ast.LiteralBoolean {
			return n
		}
		if lit.Bool {
			return v.Consequent
		}
		if v.Alternate != nil {
			return v.Alternate
		}
		return &ast.EmptyStatement{}
	})
}

// mergeVarRuns merges runs of consecutive same-kind variable declarations
// into one declaration with multiple declarators.
func mergeVarRuns(prog *ast.Program) {
	mergeIn := func(body []ast.Node) []ast.Node {
		var out []ast.Node
		for _, s := range body {
			decl, ok := s.(*ast.VariableDeclaration)
			if ok && len(out) > 0 {
				if prev, ok := out[len(out)-1].(*ast.VariableDeclaration); ok && prev.Kind == decl.Kind {
					prev.Declarations = append(prev.Declarations, decl.Declarations...)
					continue
				}
			}
			out = append(out, s)
		}
		return out
	}
	ast.Inspect(prog, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.Program:
			v.Body = mergeIn(v.Body)
		case *ast.BlockStatement:
			v.Body = mergeIn(v.Body)
		}
		return true
	})
}
