package parser

import (
	"repro/internal/js/ast"
	"repro/internal/js/lexer"
)

// parseExpression parses a (possibly comma-separated sequence) expression.
// noIn suppresses the `in` operator, for `for (a in b)` disambiguation.
func (p *parser) parseExpression(noIn bool) (ast.Node, error) {
	start := p.tok.Start
	first, err := p.parseAssignment(noIn)
	if err != nil {
		return nil, err
	}
	if !p.atPunct(",") {
		return first, nil
	}
	seq := p.arena.NewSequenceExpression(ast.SequenceExpression{Expressions: []ast.Node{first}})
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
	return finish(p, seq, start), nil
}

func (p *parser) parseAssignmentNoIn() (ast.Node, error) { return p.parseAssignment(true) }

// isAssignOp reports whether op is an assignment operator. A string switch
// (length dispatch plus memory compare) keeps the per-expression test off
// the map-hashing path.
//
//jslint:hotpath
func isAssignOp(op string) bool {
	switch op {
	case "=", "+=", "-=", "*=", "/=", "%=",
		"<<=", ">>=", ">>>=", "&=", "|=", "^=",
		"**=", "&&=", "||=", "??=":
		return true
	}
	return false
}

// parseAssignment parses an AssignmentExpression (the non-comma expression
// level): arrows, yield, conditional, and assignment operators.
func (p *parser) parseAssignment(noIn bool) (ast.Node, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	start := p.tok.Start

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

	if p.tok.Kind == lexer.Punct && isAssignOp(p.tok.Lexeme) {
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
		return finish(p, p.arena.NewAssignmentExpression(ast.AssignmentExpression{Operator: op, Left: target, Right: right}), start), nil
	}
	return left, nil
}

func (p *parser) parseYield() (ast.Node, error) {
	start := p.tok.Start
	if err := p.expectKeyword("yield"); err != nil {
		return nil, err
	}
	y := p.arena.NewYieldExpression(ast.YieldExpression{})
	if p.atPunct("*") {
		y.Delegate = true
		if err := p.next(); err != nil {
			return nil, err
		}
	}
	if !p.tok.NewlineBefore && !p.atPunct(")") && !p.atPunct("]") && !p.atPunct("}") &&
		!p.atPunct(",") && !p.atPunct(";") && !p.atPunct(":") && !p.at(lexer.EOF) {
		arg, err := p.parseAssignment(false)
		if err != nil {
			return nil, err
		}
		y.Argument = arg
	}
	return finish(p, y, start), nil
}

// tryParseArrow recognizes the three arrow-function head shapes with bounded
// backtracking: `x =>`, `(params) =>`, and `async ... =>`.
func (p *parser) tryParseArrow() (ast.Node, bool, error) {
	start := p.tok.Start

	// `async` prefixed arrows.
	if p.atIdentName("async") {
		save := p.save()
		if err := p.next(); err != nil {
			return nil, false, err
		}
		if !p.tok.NewlineBefore && (p.at(lexer.Ident) || p.atPunct("(")) && !p.atKeyword("function") {
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
	if p.at(lexer.Ident) || (p.tok.Kind == lexer.Keyword && isContextualName(p.tok.StringValue)) {
		save := p.save()
		name := p.identHere(p.tok.StringValue)
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
		off := p.tok.Start
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
	arrow := p.arena.NewArrowFunctionExpression(ast.ArrowFunctionExpression{Params: params, Async: isAsync})
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
	return finish(p, arrow, start), nil
}

func (p *parser) parseConditional(noIn bool) (ast.Node, error) {
	start := p.tok.Start
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
	return finish(p, p.arena.NewConditionalExpression(ast.ConditionalExpression{Test: test, Consequent: cons, Alternate: alt}), start), nil
}

// binaryPrec maps binary/logical operators to precedence levels. Higher binds
// tighter. Zero means "not a binary operator". The precedence climber asks
// this for every operator position, so it is a string switch rather than a
// map: no hashing, just length dispatch and a compare.
//
//jslint:hotpath
func binaryPrec(op string) int {
	switch op {
	case "??":
		return 1
	case "||":
		return 2
	case "&&":
		return 3
	case "|":
		return 4
	case "^":
		return 5
	case "&":
		return 6
	case "==", "!=", "===", "!==":
		return 7
	case "<", ">", "<=", ">=", "in", "instanceof":
		return 8
	case "<<", ">>", ">>>":
		return 9
	case "+", "-":
		return 10
	case "*", "/", "%":
		return 11
	case "**":
		return 12
	}
	return 0
}

func isLogicalOp(op string) bool { return op == "&&" || op == "||" || op == "??" }

func (p *parser) binaryOp(noIn bool) (string, int) {
	var op string
	switch {
	case p.tok.Kind == lexer.Punct:
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
	return op, binaryPrec(op)
}

// parseBinary is a precedence climber over binary and logical operators.
func (p *parser) parseBinary(minPrec int, noIn bool) (ast.Node, error) {
	start := p.tok.Start
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
			left = finish(p, p.arena.NewLogicalExpression(ast.LogicalExpression{Operator: op, Left: left, Right: right}), start)
		} else {
			left = finish(p, p.arena.NewBinaryExpression(ast.BinaryExpression{Operator: op, Left: left, Right: right}), start)
		}
	}
}

// isUnaryOp reports whether op is a (non-keyword) unary prefix operator.
// parseUnary asks this for every operand, so it is a branch, not a map.
//
//jslint:hotpath
func isUnaryOp(op string) bool {
	return len(op) == 1 && (op[0] == '+' || op[0] == '-' || op[0] == '~' || op[0] == '!')
}

// parseUnary guards the recursion depth around parseUnaryInner. The wrapper
// exists so the depth bookkeeping is a plain call pair instead of a defer:
// parseUnary runs once per operand, and the defer machinery was a visible
// slice of the parse profile.
func (p *parser) parseUnary() (ast.Node, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	n, err := p.parseUnaryInner()
	p.leave()
	return n, err
}

func (p *parser) parseUnaryInner() (ast.Node, error) {
	start := p.tok.Start

	switch {
	case p.tok.Kind == lexer.Punct && isUnaryOp(p.tok.Lexeme):
		op := p.tok.Lexeme
		if err := p.next(); err != nil {
			return nil, err
		}
		arg, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return finish(p, p.arena.NewUnaryExpression(ast.UnaryExpression{Operator: op, Argument: arg}), start), nil
	case p.atKeyword("typeof"), p.atKeyword("void"), p.atKeyword("delete"):
		op := p.tok.StringValue
		if err := p.next(); err != nil {
			return nil, err
		}
		arg, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return finish(p, p.arena.NewUnaryExpression(ast.UnaryExpression{Operator: op, Argument: arg}), start), nil
	case p.atPunct("++"), p.atPunct("--"):
		op := p.tok.Lexeme
		if err := p.next(); err != nil {
			return nil, err
		}
		arg, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return finish(p, p.arena.NewUpdateExpression(ast.UpdateExpression{Operator: op, Argument: arg, Prefix: true}), start), nil
	case p.atKeyword("await"):
		if err := p.next(); err != nil {
			return nil, err
		}
		arg, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return finish(p, p.arena.NewAwaitExpression(ast.AwaitExpression{Argument: arg}), start), nil
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
		return finish(p, p.arena.NewUpdateExpression(ast.UpdateExpression{Operator: op, Argument: expr, Prefix: false}), start), nil
	}
	return expr, nil
}

// parseLeftHandSide parses new/call/member chains, optional chaining, and
// tagged templates.
func (p *parser) parseLeftHandSide() (ast.Node, error) {
	start := p.tok.Start
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
	start := p.tok.Start
	newEnd := p.tok.End
	if err := p.expectKeyword("new"); err != nil {
		return nil, err
	}
	if p.atPunct(".") {
		// new.target
		if err := p.next(); err != nil {
			return nil, err
		}
		prop := p.identHere(p.tok.StringValue)
		if err := p.next(); err != nil {
			return nil, err
		}
		meta := p.arena.NewIdentifier(ast.Identifier{Name: "new"})
		meta.SetRange(byteRange(start, newEnd))
		return finish(p, p.arena.NewMetaProperty(ast.MetaProperty{Meta: meta, Property: prop}), start), nil
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
	ne := p.arena.NewNewExpression(ast.NewExpression{Callee: callee})
	if p.atPunct("(") {
		args, err := p.parseArguments()
		if err != nil {
			return nil, err
		}
		ne.Arguments = args
	}
	return finish(p, ne, start), nil
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
			if p.tok.Kind != lexer.Ident && p.tok.Kind != lexer.Keyword && p.tok.Kind != lexer.PrivateIdent {
				return nil, p.errorf("expected property name, found %q", p.tok.Lexeme)
			}
			prop := p.identHere(p.tok.StringValue)
			if err := p.next(); err != nil {
				return nil, err
			}
			expr = finish(p, p.arena.NewMemberExpression(ast.MemberExpression{Object: expr, Property: prop}), start)
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
			expr = finish(p, p.arena.NewMemberExpression(ast.MemberExpression{Object: expr, Property: prop, Computed: true}), start)
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
				expr = finish(p, p.arena.NewCallExpression(ast.CallExpression{Callee: expr, Arguments: args, Optional: true}), start)
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
				expr = finish(p, p.arena.NewMemberExpression(ast.MemberExpression{Object: expr, Property: prop, Computed: true, Optional: true}), start)
			default:
				if p.tok.Kind != lexer.Ident && p.tok.Kind != lexer.Keyword && p.tok.Kind != lexer.PrivateIdent {
					return nil, p.errorf("expected property name after ?., found %q", p.tok.Lexeme)
				}
				prop := p.identHere(p.tok.StringValue)
				if err := p.next(); err != nil {
					return nil, err
				}
				expr = finish(p, p.arena.NewMemberExpression(ast.MemberExpression{Object: expr, Property: prop, Optional: true}), start)
			}
		case p.atPunct("("):
			args, err := p.parseArguments()
			if err != nil {
				return nil, err
			}
			expr = finish(p, p.arena.NewCallExpression(ast.CallExpression{Callee: expr, Arguments: args}), start)
		case p.at(lexer.NoSubstTemplate), p.at(lexer.TemplateHead):
			quasi, err := p.parseTemplateLiteral()
			if err != nil {
				return nil, err
			}
			expr = finish(p, p.arena.NewTaggedTemplateExpression(ast.TaggedTemplateExpression{Tag: expr, Quasi: quasi}), start)
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
		if p.tok.Kind != lexer.Ident && p.tok.Kind != lexer.Keyword && p.tok.Kind != lexer.PrivateIdent {
			return nil, p.errorf("expected property name, found %q", p.tok.Lexeme)
		}
		prop := p.identHere(p.tok.StringValue)
		if err := p.next(); err != nil {
			return nil, err
		}
		return finish(p, p.arena.NewMemberExpression(ast.MemberExpression{Object: expr, Property: prop}), start), nil
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
	return finish(p, p.arena.NewMemberExpression(ast.MemberExpression{Object: expr, Property: prop, Computed: true}), start), nil
}

func (p *parser) parseArguments() ([]ast.Node, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var args []ast.Node
	for !p.atPunct(")") {
		if p.atPunct("...") {
			sStart := p.tok.Start
			if err := p.next(); err != nil {
				return nil, err
			}
			arg, err := p.parseAssignment(false)
			if err != nil {
				return nil, err
			}
			args = append(args, finish(p, p.arena.NewSpreadElement(ast.SpreadElement{Argument: arg}), sStart))
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
	start := p.tok.Start
	switch p.tok.Kind {
	case lexer.Ident:
		name := p.tok.StringValue
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
				finish(p, fn, start)
				return fn, nil
			}
			p.restore(save)
		}
		id := p.arena.NewIdentifier(ast.Identifier{Name: name})
		if err := p.next(); err != nil {
			return nil, err
		}
		return finish(p, id, start), nil
	case lexer.Number:
		lit := p.arena.NewLiteral(ast.Literal{Kind: ast.LiteralNumber, Raw: p.tok.Lexeme, Number: p.tok.NumberValue})
		if err := p.next(); err != nil {
			return nil, err
		}
		return finish(p, lit, start), nil
	case lexer.String:
		lit := p.arena.NewLiteral(ast.Literal{Kind: ast.LiteralString, Raw: p.tok.Lexeme, String: p.tok.StringValue})
		if err := p.next(); err != nil {
			return nil, err
		}
		return finish(p, lit, start), nil
	case lexer.Regex:
		lit := p.arena.NewLiteral(ast.Literal{Kind: ast.LiteralRegExp, Raw: p.tok.Lexeme})
		lit.Regex.Pattern = p.tok.RegexPattern
		lit.Regex.Flags = p.tok.RegexFlags
		if err := p.next(); err != nil {
			return nil, err
		}
		return finish(p, lit, start), nil
	case lexer.NoSubstTemplate, lexer.TemplateHead:
		return p.parseTemplateLiteral()
	case lexer.PrivateIdent:
		// `#field in obj` (ES2022): treat as identifier reference.
		id := p.arena.NewIdentifier(ast.Identifier{Name: p.tok.StringValue})
		if err := p.next(); err != nil {
			return nil, err
		}
		return finish(p, id, start), nil
	case lexer.Keyword:
		switch p.tok.StringValue {
		case "this":
			if err := p.next(); err != nil {
				return nil, err
			}
			return finish(p, p.arena.NewThisExpression(ast.ThisExpression{}), start), nil
		case "super":
			if err := p.next(); err != nil {
				return nil, err
			}
			return finish(p, p.arena.NewSuper(ast.Super{}), start), nil
		case "true", "false":
			lit := p.arena.NewLiteral(ast.Literal{Kind: ast.LiteralBoolean, Raw: p.tok.StringValue, Bool: p.tok.StringValue == "true"})
			if err := p.next(); err != nil {
				return nil, err
			}
			return finish(p, lit, start), nil
		case "null":
			lit := p.arena.NewLiteral(ast.Literal{Kind: ast.LiteralNull, Raw: "null"})
			if err := p.next(); err != nil {
				return nil, err
			}
			return finish(p, lit, start), nil
		case "function":
			return p.parseFunctionExpression(false)
		case "class":
			return p.parseClassExpression()
		case "new":
			return p.parseNew()
		case "import":
			// Dynamic import `import(...)` or `import.meta`.
			importEnd := p.tok.End
			if err := p.next(); err != nil {
				return nil, err
			}
			if p.atPunct(".") {
				if err := p.next(); err != nil {
					return nil, err
				}
				prop := p.identHere(p.tok.StringValue)
				if err := p.next(); err != nil {
					return nil, err
				}
				meta := p.arena.NewIdentifier(ast.Identifier{Name: "import"})
				meta.SetRange(byteRange(start, importEnd))
				return finish(p, p.arena.NewMetaProperty(ast.MetaProperty{Meta: meta, Property: prop}), start), nil
			}
			return finish(p, p.arena.NewIdentifier(ast.Identifier{Name: "import"}), start), nil
		case "let", "yield", "await":
			// Sloppy-mode identifier usage.
			id := p.arena.NewIdentifier(ast.Identifier{Name: p.tok.StringValue})
			if err := p.next(); err != nil {
				return nil, err
			}
			return finish(p, id, start), nil
		}
		return nil, p.errorf("unexpected keyword %q", p.tok.Lexeme)
	case lexer.Punct:
		switch p.tok.Lexeme {
		case "(":
			return p.parseParenExpression()
		case "[":
			return p.parseArrayLiteral()
		case "{":
			return p.parseObjectLiteral()
		}
	}
	return nil, p.errorf("unexpected token %q", p.tok.Lexeme)
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
	start := p.tok.Start
	if err := p.expectPunct("["); err != nil {
		return nil, err
	}
	arr := p.arena.NewArrayExpression(ast.ArrayExpression{})
	for !p.atPunct("]") {
		if p.atPunct(",") {
			arr.Elements = append(arr.Elements, nil) // elision
			if err := p.next(); err != nil {
				return nil, err
			}
			continue
		}
		if p.atPunct("...") {
			sStart := p.tok.Start
			if err := p.next(); err != nil {
				return nil, err
			}
			arg, err := p.parseAssignment(false)
			if err != nil {
				return nil, err
			}
			arr.Elements = append(arr.Elements, finish(p, p.arena.NewSpreadElement(ast.SpreadElement{Argument: arg}), sStart))
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
	return finish(p, arr, start), nil
}

func (p *parser) parseObjectLiteral() (ast.Node, error) {
	start := p.tok.Start
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	obj := p.arena.NewObjectExpression(ast.ObjectExpression{})
	for !p.atPunct("}") {
		if p.atPunct("...") {
			sStart := p.tok.Start
			if err := p.next(); err != nil {
				return nil, err
			}
			arg, err := p.parseAssignment(false)
			if err != nil {
				return nil, err
			}
			obj.Properties = append(obj.Properties, finish(p, p.arena.NewSpreadElement(ast.SpreadElement{Argument: arg}), sStart))
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
	return finish(p, obj, start), nil
}

func (p *parser) parseObjectProperty() (ast.Node, error) {
	start := p.tok.Start
	prop := p.arena.NewProperty(ast.Property{Kind: "init"})

	isAsync := false
	isGen := false
	if p.atIdentName("async") {
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
	if (p.atIdentName("get") || p.atIdentName("set")) && !isAsync && !isGen {
		accessor := p.tok.StringValue
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
		fStart := p.tok.Start
		params, err := p.parseParams()
		if err != nil {
			return nil, err
		}
		body, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		fn := p.arena.NewFunctionExpression(ast.FunctionExpression{Params: params, Body: body, Generator: isGen, Async: isAsync})
		finish(p, fn, fStart)
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
			ap := p.arena.NewAssignmentPattern(ast.AssignmentPattern{Left: p.cloneIdent(id), Right: dflt})
			finish(p, ap, start)
			prop.Value = ap
		} else {
			prop.Value = p.cloneIdent(id)
		}
	}
	return finish(p, prop, start), nil
}

func (p *parser) parseTemplateLiteral() (*ast.TemplateLiteral, error) {
	start := p.tok.Start
	tpl := p.arena.NewTemplateLiteral(ast.TemplateLiteral{})
	if p.at(lexer.NoSubstTemplate) {
		el := p.arena.NewTemplateElement(ast.TemplateElement{Raw: p.tok.Lexeme, Cooked: p.tok.StringValue, Tail: true})
		el.SetRange(p.tokRange())
		if err := p.next(); err != nil {
			return nil, err
		}
		tpl.Quasis = append(tpl.Quasis, el)
		finish(p, tpl, start)
		return tpl, nil
	}
	if !p.at(lexer.TemplateHead) {
		return nil, p.errorf("expected template literal")
	}
	head := p.arena.NewTemplateElement(ast.TemplateElement{Raw: p.tok.Lexeme, Cooked: p.tok.StringValue})
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
			return nil, p.errorf("expected '}' in template substitution, found %q", p.tok.Lexeme)
		}
		tok, err := p.lex.RescanTemplateContinue(p.tok)
		if err != nil {
			return nil, err
		}
		// Replace the '}' with the rescanned template chunk and fetch the
		// token after it.
		p.tok = tok
		el := p.arena.NewTemplateElement(ast.TemplateElement{Raw: tok.Lexeme, Cooked: tok.StringValue, Tail: tok.Kind == lexer.TemplateTail})
		el.SetRange(byteRange(tok.Start, tok.End))
		tpl.Quasis = append(tpl.Quasis, el)
		isTail := tok.Kind == lexer.TemplateTail
		if err := p.next(); err != nil {
			return nil, err
		}
		if isTail {
			finish(p, tpl, start)
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
		pat := p.arena.NewArrayPattern(ast.ArrayPattern{})
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
				rest := p.arena.NewRestElement(ast.RestElement{Argument: arg})
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
		pat := p.arena.NewObjectPattern(ast.ObjectPattern{})
		pat.SetRange(v.Range())
		for _, prop := range v.Properties {
			switch pv := prop.(type) {
			case *ast.SpreadElement:
				arg, err := p.toPattern(pv.Argument)
				if err != nil {
					return nil, err
				}
				rest := p.arena.NewRestElement(ast.RestElement{Argument: arg})
				rest.SetRange(pv.Range())
				pat.Properties = append(pat.Properties, rest)
			case *ast.Property:
				val, err := p.toPattern(pv.Value)
				if err != nil {
					return nil, err
				}
				np := p.arena.NewProperty(ast.Property{
					Key: pv.Key, Value: val, Kind: "init",
					Computed: pv.Computed, Shorthand: pv.Shorthand,
				})
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
		ap := p.arena.NewAssignmentPattern(ast.AssignmentPattern{Left: left, Right: v.Right})
		ap.SetRange(v.Range())
		return ap, nil
	default:
		return nil, p.errorf("invalid assignment target %s", expr.Type())
	}
}
