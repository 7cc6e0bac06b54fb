package refspec

import (
	"repro/internal/js/ast"
)

// parseExpression parses a (possibly comma-separated sequence) expression.
// noIn suppresses the `in` operator, for `for (a in b)` disambiguation.
func (p *parser) parseExpression(noIn bool) (ast.Node, error) {
	start := p.tok.Start.Offset
	first, err := p.parseAssignment(noIn)
	if err != nil {
		return nil, err
	}
	if !p.atPunct(",") {
		return first, nil
	}
	seq := &ast.SequenceExpression{Expressions: []ast.Node{first}}
	for p.atPunct(",") {
		if err := p.next(); err != nil {
			return nil, err
		}
		next, err := p.parseAssignment(noIn)
		if err != nil {
			return nil, err
		}
		seq.Expressions = append(seq.Expressions, next)
	}
	return p.finish(seq, start), nil
}

func (p *parser) parseAssignmentNoIn() (ast.Node, error) { return p.parseAssignment(true) }

var assignOps = map[string]bool{
	"=": true, "+=": true, "-=": true, "*=": true, "/=": true, "%=": true,
	"<<=": true, ">>=": true, ">>>=": true, "&=": true, "|=": true, "^=": true,
	"**=": true, "&&=": true, "||=": true, "??=": true,
}

// parseAssignment parses an AssignmentExpression (the non-comma expression
// level): arrows, yield, conditional, and assignment operators.
func (p *parser) parseAssignment(noIn bool) (ast.Node, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	start := p.tok.Start.Offset

	if p.atKeyword("yield") {
		return p.parseYield()
	}

	// Arrow function fast paths and cover-grammar handling.
	if arrow, ok, err := p.tryParseArrow(); err != nil {
		return nil, err
	} else if ok {
		return arrow, nil
	}

	left, err := p.parseConditional(noIn)
	if err != nil {
		return nil, err
	}

	if p.tok.Kind == Punct && assignOps[p.tok.Lexeme] {
		op := p.tok.Lexeme
		if err := p.next(); err != nil {
			return nil, err
		}
		target := left
		if op == "=" {
			// Destructuring assignment: reinterpret literal as pattern.
			switch left.(type) {
			case *ast.ArrayExpression, *ast.ObjectExpression:
				target, err = p.toPattern(left)
				if err != nil {
					return nil, err
				}
			}
		}
		right, err := p.parseAssignment(noIn)
		if err != nil {
			return nil, err
		}
		return p.finish(&ast.AssignmentExpression{Operator: op, Left: target, Right: right}, start), nil
	}
	return left, nil
}

func (p *parser) parseYield() (ast.Node, error) {
	start := p.tok.Start.Offset
	if err := p.expectKeyword("yield"); err != nil {
		return nil, err
	}
	y := &ast.YieldExpression{}
	if p.atPunct("*") {
		y.Delegate = true
		if err := p.next(); err != nil {
			return nil, err
		}
	}
	if !p.tok.NewlineBefore && !p.atPunct(")") && !p.atPunct("]") && !p.atPunct("}") &&
		!p.atPunct(",") && !p.atPunct(";") && !p.atPunct(":") && !p.at(EOF) {
		arg, err := p.parseAssignment(false)
		if err != nil {
			return nil, err
		}
		y.Argument = arg
	}
	return p.finish(y, start), nil
}

// tryParseArrow recognizes the three arrow-function head shapes with bounded
// backtracking: `x =>`, `(params) =>`, and `async ... =>`.
func (p *parser) tryParseArrow() (ast.Node, bool, error) {
	start := p.tok.Start.Offset

	// `async` prefixed arrows.
	if p.atIdentLexeme("async") {
		save := p.save()
		if err := p.next(); err != nil {
			return nil, false, err
		}
		if !p.tok.NewlineBefore && (p.at(Ident) || p.atPunct("(")) && !p.atKeyword("function") {
			if arrow, ok, err := p.tryParseArrowTail(start, true); err == nil && ok {
				return arrow, true, nil
			}
		}
		p.restore(save)
		return nil, false, nil
	}
	return p.tryParseArrowTail(start, false)
}

// tryParseArrowTail attempts `ident =>` or `(params) =>` from the current
// position; it restores the parser state and reports ok=false when the input
// is not an arrow function.
func (p *parser) tryParseArrowTail(start int32, isAsync bool) (ast.Node, bool, error) {
	if p.at(Ident) || (p.tok.Kind == Keyword && isContextualName(p.tok.Lexeme)) {
		save := p.save()
		name := p.identHere(p.tok.Lexeme)
		if err := p.next(); err != nil {
			return nil, false, err
		}
		if p.atPunct("=>") && !p.tok.NewlineBefore {
			params := []ast.Node{name}
			arrow, err := p.parseArrowBody(start, params, isAsync)
			if err != nil {
				return nil, false, err
			}
			return arrow, true, nil
		}
		p.restore(save)
		return nil, false, nil
	}
	if p.atPunct("(") {
		// Memoize failed paren-head attempts by byte offset. Without this,
		// nested cover-grammar input such as `(a = (b = (c = ...` is
		// re-attempted as an arrow head once per enclosing retry, doubling
		// the work at every nesting level (exponential parse time).
		off := p.tok.Start.Offset
		if p.arrowFail[off] {
			return nil, false, nil
		}
		save := p.save()
		params, err := p.tryParseArrowParams()
		if err == nil && p.atPunct("=>") && !p.tok.NewlineBefore {
			arrow, err := p.parseArrowBody(start, params, isAsync)
			if err != nil {
				return nil, false, err
			}
			return arrow, true, nil
		}
		p.restore(save)
		if p.arrowFail == nil {
			p.arrowFail = make(map[int32]bool)
		}
		p.arrowFail[off] = true
		return nil, false, nil
	}
	return nil, false, nil
}

// tryParseArrowParams parses `( bindings )` strictly as a parameter list.
func (p *parser) tryParseArrowParams() ([]ast.Node, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var params []ast.Node
	for !p.atPunct(")") {
		param, err := p.parseParam()
		if err != nil {
			return nil, err
		}
		params = append(params, param)
		if ok, err := p.eatPunct(","); err != nil {
			return nil, err
		} else if !ok {
			break
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return params, nil
}

func (p *parser) parseArrowBody(start int32, params []ast.Node, isAsync bool) (ast.Node, error) {
	if err := p.expectPunct("=>"); err != nil {
		return nil, err
	}
	arrow := &ast.ArrowFunctionExpression{Params: params, Async: isAsync}
	if p.atPunct("{") {
		body, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		arrow.Body = body
	} else {
		body, err := p.parseAssignment(false)
		if err != nil {
			return nil, err
		}
		arrow.Body = body
		arrow.Expression = true
	}
	return p.finish(arrow, start), nil
}

func (p *parser) parseConditional(noIn bool) (ast.Node, error) {
	start := p.tok.Start.Offset
	test, err := p.parseBinary(0, noIn)
	if err != nil {
		return nil, err
	}
	if !p.atPunct("?") {
		return test, nil
	}
	if err := p.next(); err != nil {
		return nil, err
	}
	cons, err := p.parseAssignment(false)
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(":"); err != nil {
		return nil, err
	}
	alt, err := p.parseAssignment(noIn)
	if err != nil {
		return nil, err
	}
	return p.finish(&ast.ConditionalExpression{Test: test, Consequent: cons, Alternate: alt}, start), nil
}

// binaryPrec maps binary/logical operators to precedence levels. Higher binds
// tighter. Zero means "not a binary operator".
var binaryPrec = map[string]int{
	"??": 1,
	"||": 2, "&&": 3,
	"|": 4, "^": 5, "&": 6,
	"==": 7, "!=": 7, "===": 7, "!==": 7,
	"<": 8, ">": 8, "<=": 8, ">=": 8, "in": 8, "instanceof": 8,
	"<<": 9, ">>": 9, ">>>": 9,
	"+": 10, "-": 10,
	"*": 11, "/": 11, "%": 11,
	"**": 12,
}

func isLogicalOp(op string) bool { return op == "&&" || op == "||" || op == "??" }

func (p *parser) binaryOp(noIn bool) (string, int) {
	var op string
	switch {
	case p.tok.Kind == Punct:
		op = p.tok.Lexeme
	case p.atKeyword("in"):
		if noIn {
			return "", 0
		}
		op = "in"
	case p.atKeyword("instanceof"):
		op = "instanceof"
	default:
		return "", 0
	}
	return op, binaryPrec[op]
}

// parseBinary is a precedence climber over binary and logical operators.
func (p *parser) parseBinary(minPrec int, noIn bool) (ast.Node, error) {
	start := p.tok.Start.Offset
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		op, prec := p.binaryOp(noIn)
		if prec == 0 || prec < minPrec {
			return left, nil
		}
		if err := p.next(); err != nil {
			return nil, err
		}
		// `**` is right-associative; everything else is left-associative.
		nextMin := prec + 1
		if op == "**" {
			nextMin = prec
		}
		right, err := p.parseBinary(nextMin, noIn)
		if err != nil {
			return nil, err
		}
		if isLogicalOp(op) {
			left = &ast.LogicalExpression{Operator: op, Left: left, Right: right}
		} else {
			left = &ast.BinaryExpression{Operator: op, Left: left, Right: right}
		}
		p.finish(left, start)
	}
}

var unaryOps = map[string]bool{
	"+": true, "-": true, "~": true, "!": true,
}

func (p *parser) parseUnary() (ast.Node, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	start := p.tok.Start.Offset

	switch {
	case p.tok.Kind == Punct && unaryOps[p.tok.Lexeme]:
		op := p.tok.Lexeme
		if err := p.next(); err != nil {
			return nil, err
		}
		arg, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return p.finish(&ast.UnaryExpression{Operator: op, Argument: arg}, start), nil
	case p.atKeyword("typeof"), p.atKeyword("void"), p.atKeyword("delete"):
		op := p.tok.Lexeme
		if err := p.next(); err != nil {
			return nil, err
		}
		arg, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return p.finish(&ast.UnaryExpression{Operator: op, Argument: arg}, start), nil
	case p.atPunct("++"), p.atPunct("--"):
		op := p.tok.Lexeme
		if err := p.next(); err != nil {
			return nil, err
		}
		arg, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return p.finish(&ast.UpdateExpression{Operator: op, Argument: arg, Prefix: true}, start), nil
	case p.atKeyword("await"):
		if err := p.next(); err != nil {
			return nil, err
		}
		arg, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return p.finish(&ast.AwaitExpression{Argument: arg}, start), nil
	}

	expr, err := p.parseLeftHandSide()
	if err != nil {
		return nil, err
	}
	// Postfix update; restricted production: no newline before ++/--.
	if (p.atPunct("++") || p.atPunct("--")) && !p.tok.NewlineBefore {
		op := p.tok.Lexeme
		if err := p.next(); err != nil {
			return nil, err
		}
		return p.finish(&ast.UpdateExpression{Operator: op, Argument: expr, Prefix: false}, start), nil
	}
	return expr, nil
}

// parseLeftHandSide parses new/call/member chains, optional chaining, and
// tagged templates.
func (p *parser) parseLeftHandSide() (ast.Node, error) {
	start := p.tok.Start.Offset
	var expr ast.Node
	var err error
	if p.atKeyword("new") {
		expr, err = p.parseNew()
	} else {
		expr, err = p.parsePrimary()
	}
	if err != nil {
		return nil, err
	}
	return p.parseCallTail(expr, start)
}

func (p *parser) parseNew() (ast.Node, error) {
	start := p.tok.Start.Offset
	newEnd := p.tok.End.Offset
	if err := p.expectKeyword("new"); err != nil {
		return nil, err
	}
	if p.atPunct(".") {
		// new.target
		if err := p.next(); err != nil {
			return nil, err
		}
		prop := p.identHere(p.tok.Lexeme)
		if err := p.next(); err != nil {
			return nil, err
		}
		meta := ast.NewIdentifier("new")
		meta.SetRange(byteRange(start, newEnd))
		return p.finish(&ast.MetaProperty{Meta: meta, Property: prop}, start), nil
	}
	var callee ast.Node
	var err error
	if p.atKeyword("new") {
		callee, err = p.parseNew()
	} else {
		callee, err = p.parsePrimary()
	}
	if err != nil {
		return nil, err
	}
	// Member accesses bind tighter than the `new` arguments.
	callee, err = p.parseMemberTail(callee, start)
	if err != nil {
		return nil, err
	}
	ne := &ast.NewExpression{Callee: callee}
	if p.atPunct("(") {
		args, err := p.parseArguments()
		if err != nil {
			return nil, err
		}
		ne.Arguments = args
	}
	return p.finish(ne, start), nil
}

// parseMemberTail extends expr with `.name`, `[expr]`, and template tags, but
// not call arguments (used for `new` callees).
func (p *parser) parseMemberTail(expr ast.Node, start int32) (ast.Node, error) {
	for {
		switch {
		case p.atPunct("."):
			if err := p.next(); err != nil {
				return nil, err
			}
			if p.tok.Kind != Ident && p.tok.Kind != Keyword && p.tok.Kind != PrivateIdent {
				return nil, p.errorf("expected property name, found %q", p.tokSource())
			}
			prop := p.identHere(p.tok.Lexeme)
			if err := p.next(); err != nil {
				return nil, err
			}
			expr = p.finish(&ast.MemberExpression{Object: expr, Property: prop}, start)
		case p.atPunct("["):
			if err := p.next(); err != nil {
				return nil, err
			}
			prop, err := p.parseExpression(false)
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct("]"); err != nil {
				return nil, err
			}
			expr = p.finish(&ast.MemberExpression{Object: expr, Property: prop, Computed: true}, start)
		default:
			return expr, nil
		}
	}
}

// parseCallTail extends expr with member accesses, calls, optional chaining,
// and tagged templates.
func (p *parser) parseCallTail(expr ast.Node, start int32) (ast.Node, error) {
	for {
		switch {
		case p.atPunct("."), p.atPunct("["):
			var err error
			expr, err = p.parseMemberTailOne(expr, start)
			if err != nil {
				return nil, err
			}
		case p.atPunct("?."):
			if err := p.next(); err != nil {
				return nil, err
			}
			switch {
			case p.atPunct("("):
				args, err := p.parseArguments()
				if err != nil {
					return nil, err
				}
				expr = p.finish(&ast.CallExpression{Callee: expr, Arguments: args, Optional: true}, start)
			case p.atPunct("["):
				if err := p.next(); err != nil {
					return nil, err
				}
				prop, err := p.parseExpression(false)
				if err != nil {
					return nil, err
				}
				if err := p.expectPunct("]"); err != nil {
					return nil, err
				}
				expr = p.finish(&ast.MemberExpression{Object: expr, Property: prop, Computed: true, Optional: true}, start)
			default:
				if p.tok.Kind != Ident && p.tok.Kind != Keyword && p.tok.Kind != PrivateIdent {
					return nil, p.errorf("expected property name after ?., found %q", p.tokSource())
				}
				prop := p.identHere(p.tok.Lexeme)
				if err := p.next(); err != nil {
					return nil, err
				}
				expr = p.finish(&ast.MemberExpression{Object: expr, Property: prop, Optional: true}, start)
			}
		case p.atPunct("("):
			args, err := p.parseArguments()
			if err != nil {
				return nil, err
			}
			expr = p.finish(&ast.CallExpression{Callee: expr, Arguments: args}, start)
		case p.at(NoSubstTemplate), p.at(TemplateHead):
			quasi, err := p.parseTemplateLiteral()
			if err != nil {
				return nil, err
			}
			expr = p.finish(&ast.TaggedTemplateExpression{Tag: expr, Quasi: quasi}, start)
		default:
			return expr, nil
		}
	}
}

func (p *parser) parseMemberTailOne(expr ast.Node, start int32) (ast.Node, error) {
	if p.atPunct(".") {
		if err := p.next(); err != nil {
			return nil, err
		}
		if p.tok.Kind != Ident && p.tok.Kind != Keyword && p.tok.Kind != PrivateIdent {
			return nil, p.errorf("expected property name, found %q", p.tokSource())
		}
		prop := p.identHere(p.tok.Lexeme)
		if err := p.next(); err != nil {
			return nil, err
		}
		return p.finish(&ast.MemberExpression{Object: expr, Property: prop}, start), nil
	}
	if err := p.next(); err != nil { // '['
		return nil, err
	}
	prop, err := p.parseExpression(false)
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct("]"); err != nil {
		return nil, err
	}
	return p.finish(&ast.MemberExpression{Object: expr, Property: prop, Computed: true}, start), nil
}

func (p *parser) parseArguments() ([]ast.Node, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var args []ast.Node
	for !p.atPunct(")") {
		if p.atPunct("...") {
			sStart := p.tok.Start.Offset
			if err := p.next(); err != nil {
				return nil, err
			}
			arg, err := p.parseAssignment(false)
			if err != nil {
				return nil, err
			}
			args = append(args, p.finish(&ast.SpreadElement{Argument: arg}, sStart))
		} else {
			arg, err := p.parseAssignment(false)
			if err != nil {
				return nil, err
			}
			args = append(args, arg)
		}
		if !p.atPunct(")") {
			if err := p.expectPunct(","); err != nil {
				return nil, err
			}
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return args, nil
}

// ---------------------------------------------------------------------------
// Primary expressions
// ---------------------------------------------------------------------------

func (p *parser) parsePrimary() (ast.Node, error) {
	start := p.tok.Start.Offset
	switch p.tok.Kind {
	case Ident:
		name := p.tok.Lexeme
		if name == "async" {
			save := p.save()
			if err := p.next(); err != nil {
				return nil, err
			}
			if p.atKeyword("function") && !p.tok.NewlineBefore {
				fn, err := p.parseFunctionExpression(true)
				if err != nil {
					return nil, err
				}
				p.finish(fn, start)
				return fn, nil
			}
			p.restore(save)
		}
		id := ast.NewIdentifier(name)
		if err := p.next(); err != nil {
			return nil, err
		}
		return p.finish(id, start), nil
	case Number:
		lit := &ast.Literal{Kind: ast.LiteralNumber, Raw: p.tok.Lexeme, Number: p.tok.NumberValue}
		if err := p.next(); err != nil {
			return nil, err
		}
		return p.finish(lit, start), nil
	case String:
		lit := &ast.Literal{Kind: ast.LiteralString, Raw: p.tok.Lexeme, String: p.tok.StringValue}
		if err := p.next(); err != nil {
			return nil, err
		}
		return p.finish(lit, start), nil
	case Regex:
		lit := &ast.Literal{Kind: ast.LiteralRegExp, Raw: p.tok.Lexeme}
		lit.Regex.Pattern = p.tok.RegexPattern
		lit.Regex.Flags = p.tok.RegexFlags
		if err := p.next(); err != nil {
			return nil, err
		}
		return p.finish(lit, start), nil
	case NoSubstTemplate, TemplateHead:
		return p.parseTemplateLiteral()
	case PrivateIdent:
		// `#field in obj` (ES2022): treat as identifier reference.
		id := ast.NewIdentifier(p.tok.Lexeme)
		if err := p.next(); err != nil {
			return nil, err
		}
		return p.finish(id, start), nil
	case Keyword:
		switch p.tok.Lexeme {
		case "this":
			if err := p.next(); err != nil {
				return nil, err
			}
			return p.finish(&ast.ThisExpression{}, start), nil
		case "super":
			if err := p.next(); err != nil {
				return nil, err
			}
			return p.finish(&ast.Super{}, start), nil
		case "true", "false":
			lit := &ast.Literal{Kind: ast.LiteralBoolean, Raw: p.tok.Lexeme, Bool: p.tok.Lexeme == "true"}
			if err := p.next(); err != nil {
				return nil, err
			}
			return p.finish(lit, start), nil
		case "null":
			lit := &ast.Literal{Kind: ast.LiteralNull, Raw: "null"}
			if err := p.next(); err != nil {
				return nil, err
			}
			return p.finish(lit, start), nil
		case "function":
			return p.parseFunctionExpression(false)
		case "class":
			return p.parseClassExpression()
		case "new":
			return p.parseNew()
		case "import":
			// Dynamic import `import(...)` or `import.meta`.
			importEnd := p.tok.End.Offset
			if err := p.next(); err != nil {
				return nil, err
			}
			if p.atPunct(".") {
				if err := p.next(); err != nil {
					return nil, err
				}
				prop := p.identHere(p.tok.Lexeme)
				if err := p.next(); err != nil {
					return nil, err
				}
				meta := ast.NewIdentifier("import")
				meta.SetRange(byteRange(start, importEnd))
				return p.finish(&ast.MetaProperty{Meta: meta, Property: prop}, start), nil
			}
			return p.finish(ast.NewIdentifier("import"), start), nil
		case "let", "yield", "await":
			// Sloppy-mode identifier usage.
			id := ast.NewIdentifier(p.tok.Lexeme)
			if err := p.next(); err != nil {
				return nil, err
			}
			return p.finish(id, start), nil
		}
		return nil, p.errorf("unexpected keyword %q", p.tokSource())
	case Punct:
		switch p.tok.Lexeme {
		case "(":
			return p.parseParenExpression()
		case "[":
			return p.parseArrayLiteral()
		case "{":
			return p.parseObjectLiteral()
		}
	}
	return nil, p.errorf("unexpected token %q", p.tokSource())
}

// parseParenExpression parses `( expr )` including sequences. Arrow heads are
// recognized earlier by tryParseArrow, so here a parenthesized expression is
// the only possibility.
func (p *parser) parseParenExpression() (ast.Node, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	expr, err := p.parseExpression(false)
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return expr, nil
}

func (p *parser) parseArrayLiteral() (ast.Node, error) {
	start := p.tok.Start.Offset
	if err := p.expectPunct("["); err != nil {
		return nil, err
	}
	arr := &ast.ArrayExpression{}
	for !p.atPunct("]") {
		if p.atPunct(",") {
			arr.Elements = append(arr.Elements, nil) // elision
			if err := p.next(); err != nil {
				return nil, err
			}
			continue
		}
		if p.atPunct("...") {
			sStart := p.tok.Start.Offset
			if err := p.next(); err != nil {
				return nil, err
			}
			arg, err := p.parseAssignment(false)
			if err != nil {
				return nil, err
			}
			arr.Elements = append(arr.Elements, p.finish(&ast.SpreadElement{Argument: arg}, sStart))
		} else {
			el, err := p.parseAssignment(false)
			if err != nil {
				return nil, err
			}
			arr.Elements = append(arr.Elements, el)
		}
		if !p.atPunct("]") {
			if err := p.expectPunct(","); err != nil {
				return nil, err
			}
		}
	}
	if err := p.expectPunct("]"); err != nil {
		return nil, err
	}
	return p.finish(arr, start), nil
}

func (p *parser) parseObjectLiteral() (ast.Node, error) {
	start := p.tok.Start.Offset
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	obj := &ast.ObjectExpression{}
	for !p.atPunct("}") {
		if p.atPunct("...") {
			sStart := p.tok.Start.Offset
			if err := p.next(); err != nil {
				return nil, err
			}
			arg, err := p.parseAssignment(false)
			if err != nil {
				return nil, err
			}
			obj.Properties = append(obj.Properties, p.finish(&ast.SpreadElement{Argument: arg}, sStart))
		} else {
			prop, err := p.parseObjectProperty()
			if err != nil {
				return nil, err
			}
			obj.Properties = append(obj.Properties, prop)
		}
		if !p.atPunct("}") {
			if err := p.expectPunct(","); err != nil {
				return nil, err
			}
		}
	}
	if err := p.expectPunct("}"); err != nil {
		return nil, err
	}
	return p.finish(obj, start), nil
}

func (p *parser) parseObjectProperty() (ast.Node, error) {
	start := p.tok.Start.Offset
	prop := &ast.Property{Kind: "init"}

	isAsync := false
	isGen := false
	if p.atIdentLexeme("async") {
		save := p.save()
		if err := p.next(); err != nil {
			return nil, err
		}
		if p.atPunct("(") || p.atPunct(":") || p.atPunct(",") || p.atPunct("}") || p.atPunct("=") {
			p.restore(save) // plain property named async
		} else {
			isAsync = true
		}
	}
	if p.atPunct("*") {
		isGen = true
		if err := p.next(); err != nil {
			return nil, err
		}
	}
	if (p.atIdentLexeme("get") || p.atIdentLexeme("set")) && !isAsync && !isGen {
		accessor := p.tok.Lexeme
		save := p.save()
		if err := p.next(); err != nil {
			return nil, err
		}
		if p.atPunct("(") || p.atPunct(":") || p.atPunct(",") || p.atPunct("}") || p.atPunct("=") {
			p.restore(save) // plain property named get/set
		} else {
			prop.Kind = accessor
		}
	}

	key, computed, err := p.parsePropertyKey()
	if err != nil {
		return nil, err
	}
	prop.Key = key
	prop.Computed = computed

	switch {
	case prop.Kind == "get" || prop.Kind == "set" || p.atPunct("("):
		// Method or accessor.
		fStart := p.tok.Start.Offset
		params, err := p.parseParams()
		if err != nil {
			return nil, err
		}
		body, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		fn := &ast.FunctionExpression{Params: params, Body: body, Generator: isGen, Async: isAsync}
		p.finish(fn, fStart)
		prop.Value = fn
		if prop.Kind == "init" {
			prop.Method = true
		}
	case p.atPunct(":"):
		if err := p.next(); err != nil {
			return nil, err
		}
		val, err := p.parseAssignment(false)
		if err != nil {
			return nil, err
		}
		prop.Value = val
	default:
		// Shorthand (possibly with default inside a destructuring cover).
		id, ok := key.(*ast.Identifier)
		if !ok {
			return nil, p.errorf("invalid shorthand property")
		}
		prop.Shorthand = true
		if p.atPunct("=") {
			if err := p.next(); err != nil {
				return nil, err
			}
			dflt, err := p.parseAssignment(false)
			if err != nil {
				return nil, err
			}
			ap := &ast.AssignmentPattern{Left: cloneIdent(id), Right: dflt}
			p.finish(ap, start)
			prop.Value = ap
		} else {
			prop.Value = cloneIdent(id)
		}
	}
	return p.finish(prop, start), nil
}

func (p *parser) parseTemplateLiteral() (*ast.TemplateLiteral, error) {
	start := p.tok.Start.Offset
	tpl := &ast.TemplateLiteral{}
	if p.at(NoSubstTemplate) {
		el := &ast.TemplateElement{Raw: p.tok.Lexeme, Cooked: p.tok.StringValue, Tail: true}
		el.SetRange(p.tokRange())
		if err := p.next(); err != nil {
			return nil, err
		}
		tpl.Quasis = append(tpl.Quasis, el)
		p.finish(tpl, start)
		return tpl, nil
	}
	if !p.at(TemplateHead) {
		return nil, p.errorf("expected template literal")
	}
	head := &ast.TemplateElement{Raw: p.tok.Lexeme, Cooked: p.tok.StringValue}
	head.SetRange(p.tokRange())
	tpl.Quasis = append(tpl.Quasis, head)
	if err := p.next(); err != nil {
		return nil, err
	}
	for {
		expr, err := p.parseExpression(false)
		if err != nil {
			return nil, err
		}
		tpl.Expressions = append(tpl.Expressions, expr)
		if !p.atPunct("}") {
			return nil, p.errorf("expected '}' in template substitution, found %q", p.tokSource())
		}
		tok, err := p.lex.RescanTemplateContinue(p.tok)
		if err != nil {
			return nil, err
		}
		// Replace the '}' with the rescanned template chunk and fetch the
		// token after it.
		p.tok = tok
		el := &ast.TemplateElement{Raw: tok.Lexeme, Cooked: tok.StringValue, Tail: tok.Kind == TemplateTail}
		el.SetRange(byteRange(tok.Start.Offset, tok.End.Offset))
		tpl.Quasis = append(tpl.Quasis, el)
		isTail := tok.Kind == TemplateTail
		if err := p.next(); err != nil {
			return nil, err
		}
		if isTail {
			p.finish(tpl, start)
			return tpl, nil
		}
	}
}

// ---------------------------------------------------------------------------
// Expression-to-pattern conversion (destructuring assignment targets)
// ---------------------------------------------------------------------------

func (p *parser) toPattern(expr ast.Node) (ast.Node, error) {
	switch v := expr.(type) {
	case *ast.Identifier, *ast.MemberExpression, *ast.ArrayPattern, *ast.ObjectPattern,
		*ast.AssignmentPattern, *ast.RestElement:
		return expr, nil
	case *ast.ArrayExpression:
		pat := &ast.ArrayPattern{}
		pat.SetRange(v.Range())
		for i, el := range v.Elements {
			if el == nil {
				pat.Elements = append(pat.Elements, nil)
				continue
			}
			if sp, ok := el.(*ast.SpreadElement); ok {
				if i != len(v.Elements)-1 {
					return nil, p.errorf("rest element must be last")
				}
				arg, err := p.toPattern(sp.Argument)
				if err != nil {
					return nil, err
				}
				rest := &ast.RestElement{Argument: arg}
				rest.SetRange(sp.Range())
				pat.Elements = append(pat.Elements, rest)
				continue
			}
			conv, err := p.toPattern(el)
			if err != nil {
				return nil, err
			}
			pat.Elements = append(pat.Elements, conv)
		}
		return pat, nil
	case *ast.ObjectExpression:
		pat := &ast.ObjectPattern{}
		pat.SetRange(v.Range())
		for _, prop := range v.Properties {
			switch pv := prop.(type) {
			case *ast.SpreadElement:
				arg, err := p.toPattern(pv.Argument)
				if err != nil {
					return nil, err
				}
				rest := &ast.RestElement{Argument: arg}
				rest.SetRange(pv.Range())
				pat.Properties = append(pat.Properties, rest)
			case *ast.Property:
				val, err := p.toPattern(pv.Value)
				if err != nil {
					return nil, err
				}
				np := &ast.Property{
					Key: pv.Key, Value: val, Kind: "init",
					Computed: pv.Computed, Shorthand: pv.Shorthand,
				}
				np.SetRange(pv.Range())
				pat.Properties = append(pat.Properties, np)
			default:
				return nil, p.errorf("invalid destructuring property")
			}
		}
		return pat, nil
	case *ast.AssignmentExpression:
		if v.Operator != "=" {
			return nil, p.errorf("invalid destructuring default")
		}
		left, err := p.toPattern(v.Left)
		if err != nil {
			return nil, err
		}
		ap := &ast.AssignmentPattern{Left: left, Right: v.Right}
		ap.SetRange(v.Range())
		return ap, nil
	default:
		return nil, p.errorf("invalid assignment target %s", expr.NodeKind().String())
	}
}
