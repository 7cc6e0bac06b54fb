package analysis

import (
	"strings"

	"repro/internal/js/ast"
	"repro/internal/transform"
)

// ruleDeadBranch flags branches guarded by constant-false opaque predicates
// such as `74 === 74 + 13`, `"ab" == "cd"`, or `a * a < 0` on literal
// operands — the injection points of the dead-code transformation.
func ruleDeadBranch() Rule {
	const maxReports = 8
	return &rule{
		info: RuleInfo{
			ID:        "dead-branch",
			Technique: transform.DeadCodeInjection.String(),
			Severity:  SeverityWarning,
			Doc:       "branch guarded by a constant-false opaque predicate",
			Nodes:     []ast.Kind{ast.KindIfStatement, ast.KindWhileStatement},
		},
		start: func(ctx *Context, rep *Reporter) (Visit, FinishFunc) {
			reported := 0
			check := func(test ast.Node, rng ast.Range) {
				if reported >= maxReports {
					return
				}
				val, ok := foldConstBool(test)
				if !ok || val {
					return
				}
				reported++
				rep.Reportf(rng, map[string]float64{"constant_false": 1},
					"branch condition folds to a constant false (opaque predicate %q)",
					snippet(ctx.Src, test.Range()))
			}
			visit := func(n ast.Node) {
				switch v := n.(type) {
				case *ast.IfStatement:
					check(v.Test, v.Range())
				case *ast.WhileStatement:
					check(v.Test, v.Range())
				}
			}
			return visit, nil
		},
	}
}

// foldConstBool statically evaluates literal-only boolean expressions. It is
// deliberately conservative: only same-kind literal comparisons and literal
// arithmetic fold; anything touching an identifier does not.
func foldConstBool(n ast.Node) (value, ok bool) {
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
	case *ast.UnaryExpression:
		if v.Operator == "!" {
			if inner, ok := foldConstBool(v.Argument); ok {
				return !inner, true
			}
		}
	case *ast.BinaryExpression:
		if ls, lok := foldString(v.Left); lok {
			if rs, rok := foldString(v.Right); rok {
				return compareOrdered(v.Operator, strings.Compare(ls, rs))
			}
		}
		if ln, lok := foldNumber(v.Left); lok {
			if rn, rok := foldNumber(v.Right); rok {
				switch {
				case ln < rn:
					return compareOrdered(v.Operator, -1)
				case ln > rn:
					return compareOrdered(v.Operator, 1)
				default:
					return compareOrdered(v.Operator, 0)
				}
			}
		}
	}
	return false, false
}

// compareOrdered maps a three-way comparison result through a comparison
// operator.
func compareOrdered(op string, cmp int) (value, ok bool) {
	switch op {
	case "==", "===":
		return cmp == 0, true
	case "!=", "!==":
		return cmp != 0, true
	case "<":
		return cmp < 0, true
	case "<=":
		return cmp <= 0, true
	case ">":
		return cmp > 0, true
	case ">=":
		return cmp >= 0, true
	}
	return false, false
}

// foldString folds literal-only string expressions (literals and literal
// concatenation).
func foldString(n ast.Node) (string, bool) {
	switch v := n.(type) {
	case *ast.Literal:
		if v.Kind == ast.LiteralString {
			return v.String, true
		}
	case *ast.BinaryExpression:
		if v.Operator == "+" {
			if l, ok := foldString(v.Left); ok {
				if r, ok := foldString(v.Right); ok {
					return l + r, true
				}
			}
		}
	}
	return "", false
}

// foldNumber folds literal-only numeric expressions.
func foldNumber(n ast.Node) (float64, bool) {
	switch v := n.(type) {
	case *ast.Literal:
		if v.Kind == ast.LiteralNumber {
			return v.Number, true
		}
	case *ast.UnaryExpression:
		if v.Operator == "-" {
			if inner, ok := foldNumber(v.Argument); ok {
				return -inner, true
			}
		}
	case *ast.BinaryExpression:
		l, lok := foldNumber(v.Left)
		r, rok := foldNumber(v.Right)
		if lok && rok {
			switch v.Operator {
			case "+":
				return l + r, true
			case "-":
				return l - r, true
			case "*":
				return l * r, true
			case "/":
				if r != 0 {
					return l / r, true
				}
			}
		}
	}
	return 0, false
}

// ruleSwitchDispatch flags control-flow flattening: an endless loop whose
// body is a switch dispatched on `order[i++]`, usually next to a
// `"2|0|1".split("|")` execution-order string.
func ruleSwitchDispatch() Rule {
	const maxReports = 4
	return &rule{
		info: RuleInfo{
			ID:        "switch-dispatch",
			Technique: transform.ControlFlowFlattening.String(),
			Severity:  SeverityStrong,
			Doc:       "endless loop dispatching a switch over an execution-order array",
			Nodes:     []ast.Kind{ast.KindWhileStatement, ast.KindForStatement, ast.KindCallExpression},
		},
		start: func(ctx *Context, rep *Reporter) (Visit, FinishFunc) {
			type dispatcher struct {
				rng   ast.Range
				cases int
			}
			var dispatchers []dispatcher
			pipeSplits := 0
			record := func(body ast.Node, rng ast.Range) {
				blk, ok := body.(*ast.BlockStatement)
				if !ok {
					return
				}
				for _, s := range blk.Body {
					sw, ok := s.(*ast.SwitchStatement)
					if !ok {
						continue
					}
					if isOrderDispatch(sw.Discriminant) {
						dispatchers = append(dispatchers, dispatcher{rng: rng, cases: len(sw.Cases)})
					}
				}
			}
			visit := func(n ast.Node) {
				switch v := n.(type) {
				case *ast.WhileStatement:
					if isEndlessTest(v.Test) {
						record(v.Body, v.Range())
					}
				case *ast.ForStatement:
					if v.Test == nil || isEndlessTest(v.Test) {
						record(v.Body, v.Range())
					}
				case *ast.CallExpression:
					if memberProp(v.Callee) == "split" && len(v.Arguments) == 1 {
						if sep, ok := stringLit(v.Arguments[0]); ok && sep == "|" {
							m := v.Callee.(*ast.MemberExpression)
							if s, ok := stringLit(m.Object); ok && strings.Contains(s, "|") {
								pipeSplits++
							}
						}
					}
				}
			}
			finish := func() {
				for i, d := range dispatchers {
					if i >= maxReports {
						break
					}
					rep.Reportf(d.rng, map[string]float64{
						"switch_cases":       float64(d.cases),
						"pipe_split_strings": float64(pipeSplits),
					}, "endless loop dispatches a %d-case switch over an incrementing order index", d.cases)
				}
			}
			return visit, finish
		},
	}
}

// isEndlessTest matches `true` and non-zero numeric literals.
func isEndlessTest(n ast.Node) bool {
	lit, ok := n.(*ast.Literal)
	if !ok {
		return false
	}
	switch lit.Kind {
	case ast.LiteralBoolean:
		return lit.Bool
	case ast.LiteralNumber:
		return lit.Number != 0
	}
	return false
}

// isOrderDispatch matches the `order[i++]` discriminant of a flattened
// switch.
func isOrderDispatch(n ast.Node) bool {
	m, ok := n.(*ast.MemberExpression)
	if !ok || !m.Computed {
		return false
	}
	upd, ok := m.Property.(*ast.UpdateExpression)
	return ok && upd.Operator == "++"
}
