// Package printer generates JavaScript source from the AST. It supports a
// pretty mode (indented, one statement per line) used when materializing
// synthesized regular code, and a compact mode (all optional whitespace
// removed) used by the minification transformers.
package printer

import (
	"math"
	"strconv"
	"strings"

	"repro/internal/js/ast"
)

// Options configures code generation.
type Options struct {
	// Minify removes all optional whitespace and newlines.
	Minify bool
	// Indent is the indentation unit for pretty mode; defaults to two
	// spaces.
	Indent string
}

// Print renders the AST subtree n as JavaScript source.
func Print(n ast.Node, opts Options) string {
	if opts.Indent == "" {
		opts.Indent = "  "
	}
	p := &printer{opts: opts}
	p.printNode(n)
	return p.sb.String()
}

// Pretty renders n with default pretty-printing options.
func Pretty(n ast.Node) string { return Print(n, Options{}) }

// Compact renders n with all optional whitespace removed.
func Compact(n ast.Node) string { return Print(n, Options{Minify: true}) }

// Expression precedence levels, escodegen-style. Higher binds tighter.
const (
	precSequence    = 0
	precAssignment  = 1
	precConditional = 2
	precNullish     = 3
	precLogicalOr   = 4
	precLogicalAnd  = 5
	precBitwiseOr   = 6
	precBitwiseXor  = 7
	precBitwiseAnd  = 8
	precEquality    = 9
	precRelational  = 10
	precShift       = 11
	precAdditive    = 12
	precMultiplic   = 13
	precExponent    = 14
	precUnary       = 15
	precPostfix     = 16
	precCall        = 17
	precNew         = 18
	precMember      = 19
	precPrimary     = 20
)

var binPrec = map[string]int{
	"??": precNullish,
	"||": precLogicalOr, "&&": precLogicalAnd,
	"|": precBitwiseOr, "^": precBitwiseXor, "&": precBitwiseAnd,
	"==": precEquality, "!=": precEquality, "===": precEquality, "!==": precEquality,
	"<": precRelational, ">": precRelational, "<=": precRelational, ">=": precRelational,
	"in": precRelational, "instanceof": precRelational,
	"<<": precShift, ">>": precShift, ">>>": precShift,
	"+": precAdditive, "-": precAdditive,
	"*": precMultiplic, "/": precMultiplic, "%": precMultiplic,
	"**": precExponent,
}

type printer struct {
	opts   Options
	sb     strings.Builder
	indent int
}

// emit writes s, inserting a separating space when the previous character
// would otherwise merge with the start of s (identifier glue, `+ +`, `- -`).
func (p *printer) emit(s string) {
	if s == "" {
		return
	}
	if p.sb.Len() > 0 {
		prev := p.sb.String()[p.sb.Len()-1]
		c := s[0]
		// `a < !--b` must not merge into an HTML open comment, `<!--`.
		if needsSpace(prev, c) || c == '-' && strings.HasSuffix(p.sb.String(), "<!") {
			p.sb.WriteByte(' ')
		}
	}
	p.sb.WriteString(s)
}

func isIdentChar(c byte) bool {
	return c == '$' || c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' ||
		c >= '0' && c <= '9' || c >= 0x80
}

func needsSpace(prev, next byte) bool {
	if isIdentChar(prev) && isIdentChar(next) {
		return true
	}
	// `+ +x`, `- -x`, `a+ ++b` must not merge into ++/--.
	if (prev == '+' && next == '+') || (prev == '-' && next == '-') {
		return true
	}
	// `a / /re/` merging into a line comment.
	if prev == '/' && next == '/' {
		return true
	}
	return false
}

func (p *printer) nl() {
	if p.opts.Minify {
		return
	}
	p.sb.WriteByte('\n')
	for i := 0; i < p.indent; i++ {
		p.sb.WriteString(p.opts.Indent)
	}
}

// space emits a cosmetic space in pretty mode only.
func (p *printer) space() {
	if !p.opts.Minify {
		p.sb.WriteByte(' ')
	}
}

func (p *printer) printNode(n ast.Node) {
	switch v := n.(type) {
	case *ast.Program:
		for i, stmt := range v.Body {
			if i > 0 {
				p.nl()
			}
			p.printStmt(stmt)
		}
	default:
		if ast.IsStatement(n) {
			p.printStmt(n)
		} else {
			p.printExpr(n, precSequence)
		}
	}
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

func (p *printer) printStmt(n ast.Node) {
	switch v := n.(type) {
	case *ast.ExpressionStatement:
		p.printExpressionStatement(v)
	case *ast.BlockStatement:
		p.printBlock(v)
	case *ast.EmptyStatement:
		p.emit(";")
	case *ast.DebuggerStatement:
		p.emit("debugger;")
	case *ast.VariableDeclaration:
		p.printVarDecl(v)
		p.emit(";")
	case *ast.FunctionDeclaration:
		p.printFunction("function", v.ID, v.Params, v.Body, v.Generator, v.Async)
	case *ast.ClassDeclaration:
		p.printClass(v.ID, v.SuperClass, v.Body)
	case *ast.IfStatement:
		p.emit("if")
		p.space()
		p.emit("(")
		p.printExpr(v.Test, precSequence)
		p.emit(")")
		p.printNestedStmt(v.Consequent, v.Alternate != nil)
		if v.Alternate != nil {
			if _, ok := v.Consequent.(*ast.BlockStatement); ok {
				p.space()
			} else {
				p.nl()
			}
			p.emit("else")
			if alt, ok := v.Alternate.(*ast.IfStatement); ok {
				p.sb.WriteByte(' ')
				p.printStmt(alt)
			} else {
				p.printNestedStmt(v.Alternate, false)
			}
		}
	case *ast.SwitchStatement:
		p.emit("switch")
		p.space()
		p.emit("(")
		p.printExpr(v.Discriminant, precSequence)
		p.emit(")")
		p.space()
		p.emit("{")
		p.indent++
		for _, c := range v.Cases {
			p.nl()
			if c.Test != nil {
				p.emit("case")
				p.sb.WriteByte(' ')
				p.printExpr(c.Test, precSequence)
				p.emit(":")
			} else {
				p.emit("default:")
			}
			p.indent++
			for _, s := range c.Consequent {
				p.nl()
				p.printStmt(s)
			}
			p.indent--
		}
		p.indent--
		p.nl()
		p.emit("}")
	case *ast.ReturnStatement:
		p.emit("return")
		if v.Argument != nil {
			p.sb.WriteByte(' ')
			p.printExpr(v.Argument, precSequence)
		}
		p.emit(";")
	case *ast.ThrowStatement:
		p.emit("throw")
		p.sb.WriteByte(' ')
		p.printExpr(v.Argument, precSequence)
		p.emit(";")
	case *ast.TryStatement:
		p.emit("try")
		p.space()
		p.printBlock(v.Block)
		if v.Handler != nil {
			p.space()
			p.emit("catch")
			if v.Handler.Param != nil {
				p.space()
				p.emit("(")
				p.printExpr(v.Handler.Param, precSequence)
				p.emit(")")
			}
			p.space()
			p.printBlock(v.Handler.Body)
		}
		if v.Finalizer != nil {
			p.space()
			p.emit("finally")
			p.space()
			p.printBlock(v.Finalizer)
		}
	case *ast.WhileStatement:
		p.emit("while")
		p.space()
		p.emit("(")
		p.printExpr(v.Test, precSequence)
		p.emit(")")
		p.printNestedStmt(v.Body, false)
	case *ast.DoWhileStatement:
		p.emit("do")
		p.printNestedStmt(v.Body, true)
		p.space()
		p.emit("while")
		p.space()
		p.emit("(")
		p.printExpr(v.Test, precSequence)
		p.emit(");")
	case *ast.ForStatement:
		p.emit("for")
		p.space()
		p.emit("(")
		if v.Init != nil {
			if decl, ok := v.Init.(*ast.VariableDeclaration); ok {
				p.printVarDecl(decl)
			} else {
				p.printExpr(v.Init, precSequence)
			}
		}
		p.emit(";")
		if v.Test != nil {
			p.space()
			p.printExpr(v.Test, precSequence)
		}
		p.emit(";")
		if v.Update != nil {
			p.space()
			p.printExpr(v.Update, precSequence)
		}
		p.emit(")")
		p.printNestedStmt(v.Body, false)
	case *ast.ForInStatement:
		p.printForInOf("in", v.Left, v.Right, v.Body, false)
	case *ast.ForOfStatement:
		p.printForInOf("of", v.Left, v.Right, v.Body, v.Await)
	case *ast.BreakStatement:
		p.emit("break")
		if v.Label != nil {
			p.sb.WriteByte(' ')
			p.emit(v.Label.Name)
		}
		p.emit(";")
	case *ast.ContinueStatement:
		p.emit("continue")
		if v.Label != nil {
			p.sb.WriteByte(' ')
			p.emit(v.Label.Name)
		}
		p.emit(";")
	case *ast.LabeledStatement:
		p.emit(v.Label.Name)
		p.emit(":")
		p.space()
		p.printStmt(v.Body)
	case *ast.WithStatement:
		p.emit("with")
		p.space()
		p.emit("(")
		p.printExpr(v.Object, precSequence)
		p.emit(")")
		p.printNestedStmt(v.Body, false)
	case *ast.ImportDeclaration:
		p.printImport(v)
	case *ast.ExportNamedDeclaration:
		p.printExportNamed(v)
	case *ast.ExportDefaultDeclaration:
		p.emit("export")
		p.sb.WriteByte(' ')
		p.emit("default")
		p.sb.WriteByte(' ')
		switch d := v.Declaration.(type) {
		case *ast.FunctionDeclaration:
			p.printFunction("function", d.ID, d.Params, d.Body, d.Generator, d.Async)
		case *ast.ClassDeclaration:
			p.printClass(d.ID, d.SuperClass, d.Body)
		default:
			p.printExpr(v.Declaration, precAssignment)
			p.emit(";")
		}
	case *ast.ExportAllDeclaration:
		p.emit("export")
		p.emit("*")
		p.emit("from")
		p.printLiteral(v.Source)
		p.emit(";")
	default:
		// An expression in statement position (defensive).
		p.printExpr(n, precSequence)
		p.emit(";")
	}
}

func (p *printer) printExpressionStatement(v *ast.ExpressionStatement) {
	// Expressions that would be misparsed at statement start get parens.
	needParens := startsAmbiguously(v.Expression)
	if needParens {
		p.emit("(")
	}
	p.printExpr(v.Expression, precSequence)
	if needParens {
		p.emit(")")
	}
	p.emit(";")
}

// startsAmbiguously reports whether an expression at statement start would be
// parsed as a declaration or block ({, function, class).
func startsAmbiguously(n ast.Node) bool {
	switch v := n.(type) {
	case *ast.ObjectExpression, *ast.FunctionExpression, *ast.ClassExpression:
		return true
	case *ast.AssignmentExpression:
		return startsAmbiguously(v.Left)
	case *ast.BinaryExpression:
		return startsAmbiguously(v.Left)
	case *ast.LogicalExpression:
		return startsAmbiguously(v.Left)
	case *ast.ConditionalExpression:
		return startsAmbiguously(v.Test)
	case *ast.SequenceExpression:
		return len(v.Expressions) > 0 && startsAmbiguously(v.Expressions[0])
	case *ast.MemberExpression:
		return startsAmbiguously(v.Object)
	case *ast.CallExpression:
		return startsAmbiguously(v.Callee)
	case *ast.TaggedTemplateExpression:
		return startsAmbiguously(v.Tag)
	case *ast.UpdateExpression:
		return !v.Prefix && startsAmbiguously(v.Argument)
	case *ast.ObjectPattern:
		return true
	default:
		return false
	}
}

// printNestedStmt prints a statement that is the body of a control construct.
func (p *printer) printNestedStmt(n ast.Node, noTrailingBreak bool) {
	if blk, ok := n.(*ast.BlockStatement); ok {
		p.space()
		p.printBlock(blk)
		return
	}
	if p.opts.Minify {
		p.printStmt(n)
		return
	}
	p.indent++
	p.nl()
	p.printStmt(n)
	p.indent--
	_ = noTrailingBreak
}

func (p *printer) printBlock(b *ast.BlockStatement) {
	p.emit("{")
	if len(b.Body) == 0 {
		p.emit("}")
		return
	}
	p.indent++
	for _, s := range b.Body {
		p.nl()
		p.printStmt(s)
	}
	p.indent--
	p.nl()
	p.emit("}")
}

func (p *printer) printVarDecl(v *ast.VariableDeclaration) {
	p.emit(v.Kind)
	p.sb.WriteByte(' ')
	for i, d := range v.Declarations {
		if i > 0 {
			p.emit(",")
			p.space()
		}
		p.printExpr(d.ID, precAssignment)
		if d.Init != nil {
			p.space()
			p.emit("=")
			p.space()
			p.printExpr(d.Init, precAssignment)
		}
	}
}

func (p *printer) printForInOf(op string, left, right, body ast.Node, isAwait bool) {
	p.emit("for")
	if isAwait {
		p.sb.WriteByte(' ')
		p.emit("await")
	}
	p.space()
	p.emit("(")
	if decl, ok := left.(*ast.VariableDeclaration); ok {
		p.printVarDecl(decl)
	} else {
		p.printExpr(left, precAssignment)
	}
	p.sb.WriteByte(' ')
	p.emit(op)
	p.sb.WriteByte(' ')
	p.printExpr(right, precAssignment)
	p.emit(")")
	p.printNestedStmt(body, false)
}

func (p *printer) printImport(v *ast.ImportDeclaration) {
	p.emit("import")
	if len(v.Specifiers) == 0 {
		p.sb.WriteByte(' ')
		p.printLiteral(v.Source)
		p.emit(";")
		return
	}
	p.sb.WriteByte(' ')
	named := false
	first := true
	for _, s := range v.Specifiers {
		switch sp := s.(type) {
		case *ast.ImportDefaultSpecifier:
			if !first {
				p.emit(",")
				p.space()
			}
			p.emit(sp.Local.Name)
		case *ast.ImportNamespaceSpecifier:
			if !first {
				p.emit(",")
				p.space()
			}
			p.emit("*")
			p.emit("as")
			p.sb.WriteByte(' ')
			p.emit(sp.Local.Name)
		case *ast.ImportSpecifier:
			if !named {
				if !first {
					p.emit(",")
					p.space()
				}
				p.emit("{")
				named = true
			} else {
				p.emit(",")
				p.space()
			}
			p.emit(sp.Imported.Name)
			if sp.Local.Name != sp.Imported.Name {
				p.sb.WriteByte(' ')
				p.emit("as")
				p.sb.WriteByte(' ')
				p.emit(sp.Local.Name)
			}
		}
		first = false
	}
	if named {
		p.emit("}")
	}
	p.sb.WriteByte(' ')
	p.emit("from")
	p.sb.WriteByte(' ')
	p.printLiteral(v.Source)
	p.emit(";")
}

func (p *printer) printExportNamed(v *ast.ExportNamedDeclaration) {
	p.emit("export")
	if v.Declaration != nil {
		p.sb.WriteByte(' ')
		p.printStmt(v.Declaration)
		return
	}
	p.space()
	p.emit("{")
	for i, s := range v.Specifiers {
		if i > 0 {
			p.emit(",")
			p.space()
		}
		p.emit(s.Local.Name)
		if s.Exported.Name != s.Local.Name {
			p.sb.WriteByte(' ')
			p.emit("as")
			p.sb.WriteByte(' ')
			p.emit(s.Exported.Name)
		}
	}
	p.emit("}")
	if v.Source != nil {
		p.space()
		p.emit("from")
		p.space()
		p.printLiteral(v.Source)
	}
	p.emit(";")
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

func exprPrec(n ast.Node) int {
	switch v := n.(type) {
	case *ast.SequenceExpression:
		return precSequence
	case *ast.AssignmentExpression, *ast.ArrowFunctionExpression, *ast.YieldExpression:
		return precAssignment
	case *ast.ConditionalExpression:
		return precConditional
	case *ast.LogicalExpression:
		return binPrec[v.Operator]
	case *ast.BinaryExpression:
		return binPrec[v.Operator]
	case *ast.UnaryExpression, *ast.AwaitExpression:
		return precUnary
	case *ast.UpdateExpression:
		if v.Prefix {
			return precUnary
		}
		return precPostfix
	case *ast.CallExpression:
		return precCall
	case *ast.NewExpression:
		if len(v.Arguments) == 0 {
			return precNew
		}
		return precMember
	case *ast.MemberExpression, *ast.TaggedTemplateExpression:
		return precMember
	default:
		return precPrimary
	}
}

func (p *printer) printExpr(n ast.Node, minPrec int) {
	prec := exprPrec(n)
	wrap := prec < minPrec
	if wrap {
		p.emit("(")
	}
	p.printExprInner(n)
	if wrap {
		p.emit(")")
	}
}

func (p *printer) printExprInner(n ast.Node) {
	switch v := n.(type) {
	case *ast.Identifier:
		p.emit(v.Name)
	case *ast.Literal:
		p.printLiteral(v)
	case *ast.ThisExpression:
		p.emit("this")
	case *ast.Super:
		p.emit("super")
	case *ast.MetaProperty:
		p.emit(v.Meta.Name)
		p.emit(".")
		p.emit(v.Property.Name)
	case *ast.ArrayExpression:
		p.printElements(v.Elements)
	case *ast.ObjectExpression:
		p.printObject(v.Properties)
	case *ast.Property:
		p.printProperty(v)
	case *ast.SpreadElement:
		p.emit("...")
		p.printExpr(v.Argument, precAssignment)
	case *ast.FunctionExpression:
		p.printFunction("function", v.ID, v.Params, v.Body, v.Generator, v.Async)
	case *ast.ArrowFunctionExpression:
		p.printArrow(v)
	case *ast.ClassExpression:
		p.printClass(v.ID, v.SuperClass, v.Body)
	case *ast.TemplateLiteral:
		p.printTemplate(v)
	case *ast.TaggedTemplateExpression:
		p.printExpr(v.Tag, precMember)
		p.printTemplate(v.Quasi)
	case *ast.MemberExpression:
		p.printMember(v)
	case *ast.CallExpression:
		p.printExpr(v.Callee, precCall)
		if v.Optional {
			p.emit("?.")
		}
		p.printArgs(v.Arguments)
	case *ast.NewExpression:
		p.emit("new")
		p.sb.WriteByte(' ')
		if calleeContainsCall(v.Callee) {
			p.emit("(")
			p.printExpr(v.Callee, precSequence)
			p.emit(")")
		} else {
			p.printExpr(v.Callee, precNew)
		}
		if len(v.Arguments) > 0 {
			p.printArgs(v.Arguments)
		} else {
			p.emit("()")
		}
	case *ast.UnaryExpression:
		p.emit(v.Operator)
		if len(v.Operator) > 1 {
			p.sb.WriteByte(' ')
		}
		p.printExpr(v.Argument, precUnary)
	case *ast.UpdateExpression:
		if v.Prefix {
			p.emit(v.Operator)
			p.printExpr(v.Argument, precUnary)
		} else {
			p.printExpr(v.Argument, precPostfix)
			p.emit(v.Operator)
		}
	case *ast.BinaryExpression:
		prec := binPrec[v.Operator]
		leftMin, rightMin := prec, prec+1
		if v.Operator == "**" {
			leftMin, rightMin = prec+1, prec
		}
		p.printExpr(v.Left, leftMin)
		p.printBinOp(v.Operator)
		p.printExpr(v.Right, rightMin)
	case *ast.LogicalExpression:
		prec := binPrec[v.Operator]
		p.printExpr(v.Left, prec)
		p.printBinOp(v.Operator)
		p.printExpr(v.Right, prec+1)
	case *ast.AssignmentExpression:
		p.printExpr(v.Left, precPostfix)
		p.space()
		p.emit(v.Operator)
		p.space()
		p.printExpr(v.Right, precAssignment)
	case *ast.ConditionalExpression:
		p.printExpr(v.Test, precConditional+1)
		p.space()
		p.emit("?")
		p.space()
		p.printExpr(v.Consequent, precAssignment)
		p.space()
		p.emit(":")
		p.space()
		p.printExpr(v.Alternate, precAssignment)
	case *ast.SequenceExpression:
		for i, e := range v.Expressions {
			if i > 0 {
				p.emit(",")
				p.space()
			}
			p.printExpr(e, precAssignment)
		}
	case *ast.YieldExpression:
		p.emit("yield")
		if v.Delegate {
			p.emit("*")
		}
		if v.Argument != nil {
			p.sb.WriteByte(' ')
			p.printExpr(v.Argument, precAssignment)
		}
	case *ast.AwaitExpression:
		p.emit("await")
		p.sb.WriteByte(' ')
		p.printExpr(v.Argument, precUnary)
	case *ast.RestElement:
		p.emit("...")
		p.printExpr(v.Argument, precAssignment)
	case *ast.AssignmentPattern:
		p.printExpr(v.Left, precPostfix)
		p.space()
		p.emit("=")
		p.space()
		p.printExpr(v.Right, precAssignment)
	case *ast.ArrayPattern:
		p.printElements(v.Elements)
	case *ast.ObjectPattern:
		p.printObject(v.Properties)
	default:
		// Defensive: unknown nodes print nothing rather than panicking.
	}
}

func (p *printer) printBinOp(op string) {
	switch op {
	case "in", "instanceof":
		p.sb.WriteByte(' ')
		p.emit(op)
		p.sb.WriteByte(' ')
	default:
		p.space()
		p.emit(op)
		p.space()
	}
}

func calleeContainsCall(n ast.Node) bool {
	for {
		switch v := n.(type) {
		case *ast.CallExpression:
			return true
		case *ast.MemberExpression:
			n = v.Object
		case *ast.TaggedTemplateExpression:
			n = v.Tag
		default:
			return false
		}
	}
}

func (p *printer) printObject(props []ast.Node) {
	if len(props) == 0 {
		p.emit("{}")
		return
	}
	p.emit("{")
	if !p.opts.Minify {
		p.indent++
	}
	for i, prop := range props {
		if i > 0 {
			p.emit(",")
		}
		p.nlOrNothing()
		p.printExpr(prop, precAssignment)
	}
	if !p.opts.Minify {
		p.indent--
	}
	p.nlOrNothing()
	p.emit("}")
}

func (p *printer) nlOrNothing() {
	if !p.opts.Minify {
		p.nl()
	}
}

func (p *printer) printProperty(v *ast.Property) {
	if v.Kind == "get" || v.Kind == "set" {
		p.emit(v.Kind)
		p.sb.WriteByte(' ')
		p.printKey(v.Key, v.Computed)
		fn := v.Value.(*ast.FunctionExpression)
		p.printParams(fn.Params)
		p.space()
		p.printBlock(fn.Body)
		return
	}
	if v.Method {
		fn := v.Value.(*ast.FunctionExpression)
		if fn.Async {
			p.emit("async")
			p.sb.WriteByte(' ')
		}
		if fn.Generator {
			p.emit("*")
		}
		p.printKey(v.Key, v.Computed)
		p.printParams(fn.Params)
		p.space()
		p.printBlock(fn.Body)
		return
	}
	if v.Shorthand {
		p.printExpr(v.Value, precAssignment)
		return
	}
	p.printKey(v.Key, v.Computed)
	p.emit(":")
	p.space()
	p.printExpr(v.Value, precAssignment)
}

func (p *printer) printKey(key ast.Node, computed bool) {
	if computed {
		p.emit("[")
		p.printExpr(key, precAssignment)
		p.emit("]")
		return
	}
	p.printExpr(key, precPrimary)
}

func (p *printer) printMember(v *ast.MemberExpression) {
	// Number literals need either parens or a space before `.`.
	if lit, ok := v.Object.(*ast.Literal); ok && lit.Kind == ast.LiteralNumber && !v.Computed {
		p.emit("(")
		p.printLiteral(lit)
		p.emit(")")
	} else {
		p.printExpr(v.Object, precCall)
	}
	if v.Computed {
		if v.Optional {
			p.emit("?.")
		}
		p.emit("[")
		p.printExpr(v.Property, precSequence)
		p.emit("]")
		return
	}
	if v.Optional {
		p.emit("?.")
	} else {
		p.emit(".")
	}
	p.printExpr(v.Property, precPrimary)
}

func (p *printer) printArgs(args []ast.Node) {
	p.emit("(")
	for i, a := range args {
		if i > 0 {
			p.emit(",")
			p.space()
		}
		p.printExpr(a, precAssignment)
	}
	p.emit(")")
}

func (p *printer) printParams(params []ast.Node) {
	p.emit("(")
	for i, param := range params {
		if i > 0 {
			p.emit(",")
			p.space()
		}
		p.printExpr(param, precAssignment)
	}
	p.emit(")")
}

func (p *printer) printFunction(kw string, id *ast.Identifier, params []ast.Node, body *ast.BlockStatement, gen, async bool) {
	if async {
		p.emit("async")
		p.sb.WriteByte(' ')
	}
	p.emit(kw)
	if gen {
		p.emit("*")
	}
	if id != nil {
		p.sb.WriteByte(' ')
		p.emit(id.Name)
	}
	p.printParams(params)
	p.space()
	p.printBlock(body)
}

// bareParam returns the single identifier parameter an arrow prints without
// parentheses, or nil. After async the parser takes a bare parameter only
// from an identifier token, so the keyword-spelled yield, await and let keep
// their parentheses there.
func bareParam(v *ast.ArrowFunctionExpression) *ast.Identifier {
	if len(v.Params) != 1 {
		return nil
	}
	id, ok := v.Params[0].(*ast.Identifier)
	if !ok || v.Async && (id.Name == "yield" || id.Name == "await" || id.Name == "let") {
		return nil
	}
	return id
}

func (p *printer) printArrow(v *ast.ArrowFunctionExpression) {
	if v.Async {
		p.emit("async")
		p.sb.WriteByte(' ')
	}
	if id := bareParam(v); id != nil {
		p.emit(id.Name)
	} else {
		p.printParams(v.Params)
	}
	p.space()
	p.emit("=>")
	p.space()
	if blk, ok := v.Body.(*ast.BlockStatement); ok {
		p.printBlock(blk)
		return
	}
	// An expression body starting with `{` needs parens.
	if _, ok := v.Body.(*ast.ObjectExpression); ok {
		p.emit("(")
		p.printExpr(v.Body, precAssignment)
		p.emit(")")
		return
	}
	p.printExpr(v.Body, precAssignment)
}

func (p *printer) printClass(id *ast.Identifier, super ast.Node, body *ast.ClassBody) {
	p.emit("class")
	if id != nil {
		p.sb.WriteByte(' ')
		p.emit(id.Name)
	}
	if super != nil {
		p.sb.WriteByte(' ')
		p.emit("extends")
		p.sb.WriteByte(' ')
		p.printExpr(super, precMember)
	}
	p.space()
	p.emit("{")
	p.indent++
	for _, member := range body.Body {
		p.nl()
		switch m := member.(type) {
		case *ast.MethodDefinition:
			p.printMethod(m)
		case *ast.PropertyDefinition:
			p.printClassField(m)
		}
	}
	p.indent--
	p.nl()
	p.emit("}")
}

func (p *printer) printClassField(f *ast.PropertyDefinition) {
	if f.Static {
		p.emit("static")
		p.sb.WriteByte(' ')
	}
	p.printKey(f.Key, f.Computed)
	if f.Value != nil {
		p.space()
		p.emit("=")
		p.space()
		p.printExpr(f.Value, precAssignment)
	}
	p.emit(";")
}

func (p *printer) printMethod(m *ast.MethodDefinition) {
	if m.Static {
		p.emit("static")
		p.sb.WriteByte(' ')
	}
	fn := m.Value
	if fn.Async {
		p.emit("async")
		p.sb.WriteByte(' ')
	}
	if fn.Generator {
		p.emit("*")
	}
	if m.Kind == "get" || m.Kind == "set" {
		p.emit(m.Kind)
		p.sb.WriteByte(' ')
	}
	p.printKey(m.Key, m.Computed)
	p.printParams(fn.Params)
	p.space()
	p.printBlock(fn.Body)
}

// printElements prints the elements of an array literal or pattern, nil
// for a hole. A trailing hole needs a comma of its own: `[a,,]` printed as
// `[a,]` would lose it.
func (p *printer) printElements(els []ast.Node) {
	p.emit("[")
	for i, el := range els {
		if i > 0 {
			p.emit(",")
			p.space()
		}
		if el != nil {
			p.printExpr(el, precAssignment)
		}
	}
	if n := len(els); n > 0 && els[n-1] == nil {
		p.emit(",")
	}
	p.emit("]")
}

func (p *printer) printTemplate(t *ast.TemplateLiteral) {
	p.emit("`")
	for i, q := range t.Quasis {
		p.sb.WriteString(escapeTemplate(q.Cooked))
		if i < len(t.Expressions) {
			p.sb.WriteString("${")
			p.printExpr(t.Expressions[i], precSequence)
			p.sb.WriteString("}")
		}
	}
	p.sb.WriteString("`")
}

func escapeTemplate(s string) string {
	var sb strings.Builder
	for _, r := range s {
		switch r {
		case '`':
			sb.WriteString("\\`")
		case '\\':
			sb.WriteString("\\\\")
		case '$':
			sb.WriteString("\\$")
		case '\r':
			// A raw CR would be re-lexed as a line terminator and merged
			// with a following LF, so the escape keeps the cooked value.
			sb.WriteString("\\r")
		default:
			sb.WriteRune(r)
		}
	}
	return sb.String()
}

func (p *printer) printLiteral(v *ast.Literal) {
	switch v.Kind {
	case ast.LiteralString:
		p.emit(QuoteString(v.String))
	case ast.LiteralNumber:
		p.emit(FormatNumber(v.Number))
	case ast.LiteralBoolean:
		if v.Bool {
			p.emit("true")
		} else {
			p.emit("false")
		}
	case ast.LiteralNull:
		p.emit("null")
	case ast.LiteralRegExp:
		p.emit("/" + v.Regex.Pattern + "/" + v.Regex.Flags)
	}
}

// FormatNumber renders a float as a valid, compact JavaScript numeric
// literal.
func FormatNumber(f float64) string {
	if math.IsNaN(f) {
		return "NaN"
	}
	if math.IsInf(f, 1) {
		return "Infinity"
	}
	if math.IsInf(f, -1) {
		return "-Infinity"
	}
	s := strconv.FormatFloat(f, 'g', -1, 64)
	// Go writes 1e+06; JavaScript wants 1e6.
	s = strings.ReplaceAll(s, "e+0", "e")
	s = strings.ReplaceAll(s, "e+", "e")
	s = strings.ReplaceAll(s, "e-0", "e-")
	return s
}

// QuoteString renders s as a JavaScript string literal, choosing the quote
// character that minimizes escaping.
func QuoteString(s string) string {
	quote := byte('"')
	if strings.Contains(s, `"`) && !strings.Contains(s, "'") {
		quote = '\''
	}
	var sb strings.Builder
	sb.WriteByte(quote)
	runes := []rune(s)
	for i, r := range runes {
		switch r {
		case rune(quote):
			sb.WriteByte('\\')
			sb.WriteRune(r)
		case '\\':
			sb.WriteString(`\\`)
		case '\n':
			sb.WriteString(`\n`)
		case '\r':
			sb.WriteString(`\r`)
		case '\t':
			sb.WriteString(`\t`)
		case '\b':
			sb.WriteString(`\b`)
		case '\f':
			sb.WriteString(`\f`)
		case '\v':
			sb.WriteString(`\v`)
		case 0:
			// `\0` followed by a digit would re-lex as an octal escape.
			if i+1 < len(runes) && runes[i+1] >= '0' && runes[i+1] <= '9' {
				sb.WriteString(`\x00`)
			} else {
				sb.WriteString(`\0`)
			}
		case '\u2028':
			sb.WriteString(`\u2028`)
		case '\u2029':
			sb.WriteString(`\u2029`)
		default:
			if r < 0x20 {
				sb.WriteString(`\x`)
				const hexDigits = "0123456789abcdef"
				sb.WriteByte(hexDigits[r>>4])
				sb.WriteByte(hexDigits[r&0xf])
			} else {
				sb.WriteRune(r)
			}
		}
	}
	sb.WriteByte(quote)
	return sb.String()
}
