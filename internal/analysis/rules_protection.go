package analysis

import (
	"strings"

	"repro/internal/js/ast"
	"repro/internal/transform"
)

// ruleSelfDefending flags the obfuscator.io self-defending guard: a function
// converts itself to source text via `.constructor("return /" + this + "/")`
// and tests it against a formatting-sensitive regular expression.
func ruleSelfDefending() Rule {
	return &rule{
		info: RuleInfo{
			ID:        "self-defending",
			Technique: transform.SelfDefending.String(),
			Severity:  SeverityStrong,
			Doc:       "function-source integrity probe (constructor built from its own text)",
			Nodes:     []string{"CallExpression"},
		},
		start: func(ctx *Context, rep *Reporter) (Visit, FinishFunc) {
			probes := 0
			var first ast.Range
			hit := func(rng ast.Range) {
				if probes == 0 {
					first = rng
				}
				probes++
			}
			visit := func(n ast.Node) {
				v := n.(*ast.CallExpression)
				if memberProp(v.Callee) != "constructor" || len(v.Arguments) != 1 {
					return
				}
				arg := v.Arguments[0]
				if s, ok := stringLit(arg); ok {
					// The formatting-sensitive regex source: its "[^ ]"
					// classes break when whitespace is reintroduced.
					if strings.Contains(s, "[^ ]") {
						hit(v.Range())
					}
					return
				}
				// `"return /" + this + "/"` builds a source-text probe.
				if bin, ok := arg.(*ast.BinaryExpression); ok && bin.Operator == "+" {
					if containsStringWith(bin, func(s string) bool {
						return strings.Contains(s, "return /")
					}) {
						hit(v.Range())
					}
				}
			}
			finish := func() {
				if probes == 0 {
					return
				}
				rep.Reportf(first, map[string]float64{"source_probes": float64(probes)},
					"function converts its own source to text and tests it against a formatting-sensitive pattern (%d probes)", probes)
			}
			return visit, finish
		},
	}
}

// ruleDebuggerProtection flags anti-debugging guards: `debugger` statements
// injected through the Function constructor (optionally rearmed on a timer)
// or raw debugger statements re-triggered by setInterval.
func ruleDebuggerProtection() Rule {
	return &rule{
		info: RuleInfo{
			ID:        "debugger-protection",
			Technique: transform.DebugProtection.String(),
			Severity:  SeverityStrong,
			Doc:       "debugger statements injected via the Function constructor or timers",
			Nodes:     []string{"DebuggerStatement", "CallExpression"},
		},
		start: func(ctx *Context, rep *Reporter) (Visit, FinishFunc) {
			ctorDebugger, ctorStall, debuggerStmts := 0, 0, 0
			intervals := 0
			var first ast.Range
			haveSpan := false
			mark := func(rng ast.Range) {
				if !haveSpan {
					first = rng
					haveSpan = true
				}
			}
			visit := func(n ast.Node) {
				switch v := n.(type) {
				case *ast.DebuggerStatement:
					debuggerStmts++
					mark(v.Range())
				case *ast.CallExpression:
					switch identName(v.Callee) {
					case "setInterval", "setTimeout":
						intervals++
					}
					if memberProp(v.Callee) == "constructor" && len(v.Arguments) == 1 {
						if s, ok := stringLit(v.Arguments[0]); ok {
							if strings.Contains(s, "debugger") {
								ctorDebugger++
								mark(v.Range())
							}
							if strings.Contains(s, "while") && strings.Contains(s, "{}") {
								ctorStall++
								mark(v.Range())
							}
						}
					}
				}
			}
			finish := func() {
				fired := ctorDebugger > 0 ||
					(debuggerStmts >= 2 && intervals > 0) ||
					debuggerStmts >= 3
				if !fired || !haveSpan {
					return
				}
				rep.Reportf(first, map[string]float64{
					"constructor_debugger": float64(ctorDebugger),
					"constructor_stall":    float64(ctorStall),
					"debugger_statements":  float64(debuggerStmts),
					"timer_calls":          float64(intervals),
				}, "anti-debugging guard: %d constructor(\"debugger\") calls, %d raw debugger statements, %d timer re-triggers",
					ctorDebugger, debuggerStmts, intervals)
			}
			return visit, finish
		},
	}
}
