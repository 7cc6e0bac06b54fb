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
	if !p.atPunct(lexer.OpComma) {
		return first, nil
	}
	height := len(p.list)
	p.push(first)
	for p.atPunct(lexer.OpComma) {
		if err := p.next(); err != nil {
			return nil, err
		}
		next, err := p.parseAssignment(noIn)
		if err != nil {
			return nil, err
		}
		p.push(next)
	}
	seq := ast.New(p.arena, ast.SequenceExpression{Expressions: p.popList(height)})
	return finish(p, seq, start), nil
}

func (p *parser) parseAssignmentNoIn() (ast.Node, error) { return p.parseAssignment(true) }

// Operator classes, indexed by token code: the per-expression operator
// tests are one table load each.
var (
	// binaryPrecs maps binary and logical operators to precedence levels.
	// Higher binds tighter; zero means "not a binary operator".
	binaryPrecs = [lexer.OpCount]int8{
		lexer.OpNullish: 1,
		lexer.OpOr:      2,
		lexer.OpAnd:     3,
		lexer.OpBitOr:   4,
		lexer.OpBitXor:  5,
		lexer.OpBitAnd:  6,
		lexer.OpEq:      7, lexer.OpNe: 7, lexer.OpStrictEq: 7, lexer.OpStrictNe: 7,
		lexer.OpLT: 8, lexer.OpGT: 8, lexer.OpLE: 8, lexer.OpGE: 8,
		lexer.OpIn: 8, lexer.OpInstanceof: 8,
		lexer.OpShl: 9, lexer.OpShr: 9, lexer.OpUShr: 9,
		lexer.OpAdd: 10, lexer.OpSub: 10,
		lexer.OpMul: 11, lexer.OpDiv: 11, lexer.OpMod: 11,
		lexer.OpExp: 12,
	}
	assignOps = [lexer.OpCount]bool{
		lexer.OpAssign: true, lexer.OpAddAssign: true, lexer.OpSubAssign: true,
		lexer.OpMulAssign: true, lexer.OpDivAssign: true, lexer.OpModAssign: true,
		lexer.OpShlAssign: true, lexer.OpShrAssign: true, lexer.OpUShrAssign: true,
		lexer.OpAndAssign: true, lexer.OpOrAssign: true, lexer.OpXorAssign: true,
		lexer.OpExpAssign: true, lexer.OpLAndAssign: true, lexer.OpLOrAssign: true,
		lexer.OpNullAssign: true,
	}
	// unaryOps are the prefix operators that build a UnaryExpression.
	unaryOps = [lexer.OpCount]bool{
		lexer.OpAdd: true, lexer.OpSub: true, lexer.OpTilde: true, lexer.OpNot: true,
		lexer.OpTypeof: true, lexer.OpVoid: true, lexer.OpDelete: true,
	}
)

// binaryPrec returns op's binary precedence, zero when op is not a binary
// operator.
func binaryPrec(op lexer.Op) int { return int(binaryPrecs[op]) }

// isAssignOp reports whether op is an assignment operator.
func isAssignOp(op lexer.Op) bool { return assignOps[op] }

// isUnaryOp reports whether op is a prefix operator building a
// UnaryExpression (+ - ~ ! typeof void delete).
func isUnaryOp(op lexer.Op) bool { return unaryOps[op] }

// isLogicalOp reports whether op builds a LogicalExpression.
func isLogicalOp(op lexer.Op) bool {
	return op == lexer.OpAnd || op == lexer.OpOr || op == lexer.OpNullish
}

// parseAssignment parses an AssignmentExpression (the non-comma expression
// level): arrows, yield, conditional, and assignment operators.
func (p *parser) parseAssignment(noIn bool) (ast.Node, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	start := p.tok.Start

	if p.atKeyword(lexer.OpYield) {
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

	if op := p.tok.Op; isAssignOp(op) {
		if err := p.next(); err != nil {
			return nil, err
		}
		target := left
		if op == lexer.OpAssign {
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
		return finish(p, ast.New(p.arena, ast.AssignmentExpression{Operator: op.String(), Left: target, Right: right}), start), nil
	}
	return left, nil
}

func (p *parser) parseYield() (ast.Node, error) {
	start := p.tok.Start
	if err := p.expectKeyword(lexer.OpYield); err != nil {
		return nil, err
	}
	y := ast.New(p.arena, ast.YieldExpression{})
	if p.atPunct(lexer.OpMul) {
		y.Delegate = true
		if err := p.next(); err != nil {
			return nil, err
		}
	}
	if !p.tok.NewlineBefore && !p.atPunct(lexer.OpRParen) && !p.atPunct(lexer.OpRBracket) && !p.atPunct(lexer.OpRBrace) &&
		!p.atPunct(lexer.OpComma) && !p.atPunct(lexer.OpSemicolon) && !p.atPunct(lexer.OpColon) && !p.at(lexer.EOF) {
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
		if !p.tok.NewlineBefore && (p.at(lexer.Ident) || p.atPunct(lexer.OpLParen)) && !p.atKeyword(lexer.OpFunction) {
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
	if p.at(lexer.Ident) || isContextualName(p.tok.Op) {
		save := p.save()
		if err := p.next(); err != nil {
			return nil, false, err
		}
		if p.atPunct(lexer.OpArrow) && !p.tok.NewlineBefore {
			// The name node is built only once the arrow is certain, from
			// the saved token.
			name := ast.New(p.arena, ast.Identifier{Name: save.tok.StringValue})
			name.SetRange(byteRange(save.tok.Start, save.tok.End))
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
	if p.atPunct(lexer.OpLParen) {
		// Memoize failed paren-head attempts by byte offset. Without this,
		// nested cover-grammar input such as `(a = (b = (c = ...` is
		// re-attempted as an arrow head once per enclosing retry, doubling
		// the work at every nesting level (exponential parse time).
		off := p.tok.Start
		if p.arrowFail[off] {
			return nil, false, nil
		}
		save := p.save()
		params, ok := p.tryParseArrowParams()
		if ok && p.atPunct(lexer.OpArrow) && !p.tok.NewlineBefore {
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
// It reports false when the input is not one, without building an error:
// the caller backtracks and discards a failed attempt either way, and every
// parenthesized expression takes this path once.
func (p *parser) tryParseArrowParams() ([]ast.Node, bool) {
	if err := p.next(); err != nil { // '('
		return nil, false
	}
	height := len(p.list)
	for !p.atPunct(lexer.OpRParen) {
		if !p.atBindingStart() {
			return nil, false
		}
		param, err := p.parseParam()
		if err != nil {
			return nil, false
		}
		p.push(param)
		if !p.atPunct(lexer.OpComma) {
			break
		}
		if err := p.next(); err != nil {
			return nil, false
		}
	}
	if !p.atPunct(lexer.OpRParen) {
		return nil, false
	}
	if err := p.next(); err != nil {
		return nil, false
	}
	return p.popList(height), true
}

// atBindingStart reports whether the current token can begin a parameter:
// a name, a destructuring pattern or a rest element.
func (p *parser) atBindingStart() bool {
	switch p.tok.Op {
	case lexer.OpLBracket, lexer.OpLBrace, lexer.OpEllipsis:
		return true
	}
	return p.at(lexer.Ident) || isContextualName(p.tok.Op)
}

func (p *parser) parseArrowBody(start int32, params []ast.Node, isAsync bool) (ast.Node, error) {
	if err := p.expectPunct(lexer.OpArrow); err != nil {
		return nil, err
	}
	arrow := ast.New(p.arena, ast.ArrowFunctionExpression{Params: params, Async: isAsync})
	if p.atPunct(lexer.OpLBrace) {
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
	if !p.atPunct(lexer.OpQuestion) {
		return test, nil
	}
	if err := p.next(); err != nil {
		return nil, err
	}
	cons, err := p.parseAssignment(false)
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(lexer.OpColon); err != nil {
		return nil, err
	}
	alt, err := p.parseAssignment(noIn)
	if err != nil {
		return nil, err
	}
	return finish(p, ast.New(p.arena, ast.ConditionalExpression{Test: test, Consequent: cons, Alternate: alt}), start), nil
}

// binaryOp returns the operator at the current token and its precedence,
// zero when the token is not a binary operator (or is `in` under noIn).
func (p *parser) binaryOp(noIn bool) (lexer.Op, int) {
	op := p.tok.Op
	if op == lexer.OpIn && noIn {
		return op, 0
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
		if op == lexer.OpExp {
			nextMin = prec
		}
		right, err := p.parseBinary(nextMin, noIn)
		if err != nil {
			return nil, err
		}
		if isLogicalOp(op) {
			left = finish(p, ast.New(p.arena, ast.LogicalExpression{Operator: op.String(), Left: left, Right: right}), start)
		} else {
			left = finish(p, ast.New(p.arena, ast.BinaryExpression{Operator: op.String(), Left: left, Right: right}), start)
		}
	}
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

	switch op := p.tok.Op; {
	case isUnaryOp(op):
		if err := p.next(); err != nil {
			return nil, err
		}
		arg, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return finish(p, ast.New(p.arena, ast.UnaryExpression{Operator: op.String(), Argument: arg}), start), nil
	case op == lexer.OpInc || op == lexer.OpDec:
		if err := p.next(); err != nil {
			return nil, err
		}
		arg, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return finish(p, ast.New(p.arena, ast.UpdateExpression{Operator: op.String(), Argument: arg, Prefix: true}), start), nil
	case op == lexer.OpAwait:
		if err := p.next(); err != nil {
			return nil, err
		}
		arg, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return finish(p, ast.New(p.arena, ast.AwaitExpression{Argument: arg}), start), nil
	}

	expr, err := p.parseLeftHandSide()
	if err != nil {
		return nil, err
	}
	// Postfix update; restricted production: no newline before ++/--.
	if op := p.tok.Op; (op == lexer.OpInc || op == lexer.OpDec) && !p.tok.NewlineBefore {
		if err := p.next(); err != nil {
			return nil, err
		}
		return finish(p, ast.New(p.arena, ast.UpdateExpression{Operator: op.String(), Argument: expr, Prefix: false}), start), nil
	}
	return expr, nil
}

// parseLeftHandSide parses new/call/member chains, optional chaining, and
// tagged templates.
func (p *parser) parseLeftHandSide() (ast.Node, error) {
	start := p.tok.Start
	var expr ast.Node
	var err error
	if p.atKeyword(lexer.OpNew) {
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
	if err := p.expectKeyword(lexer.OpNew); err != nil {
		return nil, err
	}
	if p.atPunct(lexer.OpDot) {
		// new.target
		if err := p.next(); err != nil {
			return nil, err
		}
		prop := p.identHere(p.tok.StringValue)
		if err := p.next(); err != nil {
			return nil, err
		}
		meta := ast.New(p.arena, ast.Identifier{Name: "new"})
		meta.SetRange(byteRange(start, newEnd))
		return finish(p, ast.New(p.arena, ast.MetaProperty{Meta: meta, Property: prop}), start), nil
	}
	var callee ast.Node
	var err error
	if p.atKeyword(lexer.OpNew) {
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
	ne := ast.New(p.arena, ast.NewExpression{Callee: callee})
	if p.atPunct(lexer.OpLParen) {
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
		case p.atPunct(lexer.OpDot):
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
			expr = finish(p, ast.New(p.arena, ast.MemberExpression{Object: expr, Property: prop}), start)
		case p.atPunct(lexer.OpLBracket):
			if err := p.next(); err != nil {
				return nil, err
			}
			prop, err := p.parseExpression(false)
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(lexer.OpRBracket); err != nil {
				return nil, err
			}
			expr = finish(p, ast.New(p.arena, ast.MemberExpression{Object: expr, Property: prop, Computed: true}), start)
		default:
			return expr, nil
		}
	}
}

// parseCallTail extends expr with member accesses, calls, optional chaining,
// and tagged templates.
func (p *parser) parseCallTail(expr ast.Node, start int32) (ast.Node, error) {
	for {
		switch p.tok.Op {
		case lexer.OpDot, lexer.OpLBracket:
			var err error
			expr, err = p.parseMemberTailOne(expr, start)
			if err != nil {
				return nil, err
			}
		case lexer.OpOptChain:
			if err := p.next(); err != nil {
				return nil, err
			}
			switch {
			case p.atPunct(lexer.OpLParen):
				args, err := p.parseArguments()
				if err != nil {
					return nil, err
				}
				expr = finish(p, ast.New(p.arena, ast.CallExpression{Callee: expr, Arguments: args, Optional: true}), start)
			case p.atPunct(lexer.OpLBracket):
				if err := p.next(); err != nil {
					return nil, err
				}
				prop, err := p.parseExpression(false)
				if err != nil {
					return nil, err
				}
				if err := p.expectPunct(lexer.OpRBracket); err != nil {
					return nil, err
				}
				expr = finish(p, ast.New(p.arena, ast.MemberExpression{Object: expr, Property: prop, Computed: true, Optional: true}), start)
			default:
				if p.tok.Kind != lexer.Ident && p.tok.Kind != lexer.Keyword && p.tok.Kind != lexer.PrivateIdent {
					return nil, p.errorf("expected property name after ?., found %q", p.tok.Lexeme)
				}
				prop := p.identHere(p.tok.StringValue)
				if err := p.next(); err != nil {
					return nil, err
				}
				expr = finish(p, ast.New(p.arena, ast.MemberExpression{Object: expr, Property: prop, Optional: true}), start)
			}
		case lexer.OpLParen:
			args, err := p.parseArguments()
			if err != nil {
				return nil, err
			}
			expr = finish(p, ast.New(p.arena, ast.CallExpression{Callee: expr, Arguments: args}), start)
		default:
			if !p.at(lexer.NoSubstTemplate) && !p.at(lexer.TemplateHead) {
				return expr, nil
			}
			quasi, err := p.parseTemplateLiteral()
			if err != nil {
				return nil, err
			}
			expr = finish(p, ast.New(p.arena, ast.TaggedTemplateExpression{Tag: expr, Quasi: quasi}), start)
		}
	}
}

func (p *parser) parseMemberTailOne(expr ast.Node, start int32) (ast.Node, error) {
	if p.atPunct(lexer.OpDot) {
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
		return finish(p, ast.New(p.arena, ast.MemberExpression{Object: expr, Property: prop}), start), nil
	}
	if err := p.next(); err != nil { // '['
		return nil, err
	}
	prop, err := p.parseExpression(false)
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(lexer.OpRBracket); err != nil {
		return nil, err
	}
	return finish(p, ast.New(p.arena, ast.MemberExpression{Object: expr, Property: prop, Computed: true}), start), nil
}

func (p *parser) parseArguments() ([]ast.Node, error) {
	if err := p.expectPunct(lexer.OpLParen); err != nil {
		return nil, err
	}
	height := len(p.list)
	for !p.atPunct(lexer.OpRParen) {
		if p.atPunct(lexer.OpEllipsis) {
			sStart := p.tok.Start
			if err := p.next(); err != nil {
				return nil, err
			}
			arg, err := p.parseAssignment(false)
			if err != nil {
				return nil, err
			}
			p.push(finish(p, ast.New(p.arena, ast.SpreadElement{Argument: arg}), sStart))
		} else {
			arg, err := p.parseAssignment(false)
			if err != nil {
				return nil, err
			}
			p.push(arg)
		}
		if !p.atPunct(lexer.OpRParen) {
			if err := p.expectPunct(lexer.OpComma); err != nil {
				return nil, err
			}
		}
	}
	if err := p.expectPunct(lexer.OpRParen); err != nil {
		return nil, err
	}
	return p.popList(height), nil
}

// ---------------------------------------------------------------------------
// Primary expressions
// ---------------------------------------------------------------------------

func (p *parser) parsePrimary() (ast.Node, error) {
	start := p.tok.Start
	switch p.tok.Op {
	case lexer.OpLParen:
		return p.parseParenExpression()
	case lexer.OpLBracket:
		return p.parseArrayLiteral()
	case lexer.OpLBrace:
		return p.parseObjectLiteral()
	case lexer.OpThis:
		if err := p.next(); err != nil {
			return nil, err
		}
		return finish(p, ast.New(p.arena, ast.ThisExpression{}), start), nil
	case lexer.OpSuper:
		if err := p.next(); err != nil {
			return nil, err
		}
		return finish(p, ast.New(p.arena, ast.Super{}), start), nil
	case lexer.OpTrue, lexer.OpFalse:
		lit := ast.New(p.arena, ast.Literal{Kind: ast.LiteralBoolean, Raw: p.tok.StringValue, Bool: p.tok.Op == lexer.OpTrue})
		if err := p.next(); err != nil {
			return nil, err
		}
		return finish(p, lit, start), nil
	case lexer.OpNull:
		lit := ast.New(p.arena, ast.Literal{Kind: ast.LiteralNull, Raw: "null"})
		if err := p.next(); err != nil {
			return nil, err
		}
		return finish(p, lit, start), nil
	case lexer.OpFunction:
		return p.parseFunctionExpression(false)
	case lexer.OpClass:
		return p.parseClassExpression()
	case lexer.OpNew:
		return p.parseNew()
	case lexer.OpImport:
		// Dynamic import `import(...)` or `import.meta`.
		importEnd := p.tok.End
		if err := p.next(); err != nil {
			return nil, err
		}
		if p.atPunct(lexer.OpDot) {
			if err := p.next(); err != nil {
				return nil, err
			}
			prop := p.identHere(p.tok.StringValue)
			if err := p.next(); err != nil {
				return nil, err
			}
			meta := ast.New(p.arena, ast.Identifier{Name: "import"})
			meta.SetRange(byteRange(start, importEnd))
			return finish(p, ast.New(p.arena, ast.MetaProperty{Meta: meta, Property: prop}), start), nil
		}
		return finish(p, ast.New(p.arena, ast.Identifier{Name: "import"}), start), nil
	case lexer.OpLet, lexer.OpYield, lexer.OpAwait:
		// Sloppy-mode identifier usage.
		id := ast.New(p.arena, ast.Identifier{Name: p.tok.StringValue})
		if err := p.next(); err != nil {
			return nil, err
		}
		return finish(p, id, start), nil
	}
	switch p.tok.Kind {
	case lexer.Ident:
		name := p.tok.StringValue
		if name == "async" {
			save := p.save()
			if err := p.next(); err != nil {
				return nil, err
			}
			if p.atKeyword(lexer.OpFunction) && !p.tok.NewlineBefore {
				fn, err := p.parseFunctionExpression(true)
				if err != nil {
					return nil, err
				}
				finish(p, fn, start)
				return fn, nil
			}
			p.restore(save)
		}
		id := ast.New(p.arena, ast.Identifier{Name: name})
		if err := p.next(); err != nil {
			return nil, err
		}
		return finish(p, id, start), nil
	case lexer.Number:
		lit := ast.New(p.arena, ast.Literal{Kind: ast.LiteralNumber, Raw: p.tok.Lexeme, Number: p.tok.NumberValue})
		if err := p.next(); err != nil {
			return nil, err
		}
		return finish(p, lit, start), nil
	case lexer.String:
		lit := ast.New(p.arena, ast.Literal{Kind: ast.LiteralString, Raw: p.tok.Lexeme, String: p.tok.StringValue})
		if err := p.next(); err != nil {
			return nil, err
		}
		return finish(p, lit, start), nil
	case lexer.Regex:
		lit := ast.New(p.arena, ast.Literal{Kind: ast.LiteralRegExp, Raw: p.tok.Lexeme})
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
		id := ast.New(p.arena, ast.Identifier{Name: p.tok.StringValue})
		if err := p.next(); err != nil {
			return nil, err
		}
		return finish(p, id, start), nil
	case lexer.Keyword:
		return nil, p.errorf("unexpected keyword %q", p.tok.Lexeme)
	}
	return nil, p.errorf("unexpected token %q", p.tok.Lexeme)
}

// parseParenExpression parses `( expr )` including sequences. Arrow heads are
// recognized earlier by tryParseArrow, so here a parenthesized expression is
// the only possibility.
func (p *parser) parseParenExpression() (ast.Node, error) {
	if err := p.expectPunct(lexer.OpLParen); err != nil {
		return nil, err
	}
	expr, err := p.parseExpression(false)
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(lexer.OpRParen); err != nil {
		return nil, err
	}
	return expr, nil
}

func (p *parser) parseArrayLiteral() (ast.Node, error) {
	start := p.tok.Start
	if err := p.expectPunct(lexer.OpLBracket); err != nil {
		return nil, err
	}
	arr := ast.New(p.arena, ast.ArrayExpression{})
	height := len(p.list)
	for !p.atPunct(lexer.OpRBracket) {
		if p.atPunct(lexer.OpComma) {
			p.push(nil) // elision
			if err := p.next(); err != nil {
				return nil, err
			}
			continue
		}
		if p.atPunct(lexer.OpEllipsis) {
			sStart := p.tok.Start
			if err := p.next(); err != nil {
				return nil, err
			}
			arg, err := p.parseAssignment(false)
			if err != nil {
				return nil, err
			}
			p.push(finish(p, ast.New(p.arena, ast.SpreadElement{Argument: arg}), sStart))
		} else {
			el, err := p.parseAssignment(false)
			if err != nil {
				return nil, err
			}
			p.push(el)
		}
		if !p.atPunct(lexer.OpRBracket) {
			if err := p.expectPunct(lexer.OpComma); err != nil {
				return nil, err
			}
		}
	}
	if err := p.expectPunct(lexer.OpRBracket); err != nil {
		return nil, err
	}
	arr.Elements = p.popList(height)
	return finish(p, arr, start), nil
}

func (p *parser) parseObjectLiteral() (ast.Node, error) {
	start := p.tok.Start
	if err := p.expectPunct(lexer.OpLBrace); err != nil {
		return nil, err
	}
	obj := ast.New(p.arena, ast.ObjectExpression{})
	height := len(p.list)
	for !p.atPunct(lexer.OpRBrace) {
		if p.atPunct(lexer.OpEllipsis) {
			sStart := p.tok.Start
			if err := p.next(); err != nil {
				return nil, err
			}
			arg, err := p.parseAssignment(false)
			if err != nil {
				return nil, err
			}
			p.push(finish(p, ast.New(p.arena, ast.SpreadElement{Argument: arg}), sStart))
		} else {
			prop, err := p.parseObjectProperty()
			if err != nil {
				return nil, err
			}
			p.push(prop)
		}
		if !p.atPunct(lexer.OpRBrace) {
			if err := p.expectPunct(lexer.OpComma); err != nil {
				return nil, err
			}
		}
	}
	if err := p.expectPunct(lexer.OpRBrace); err != nil {
		return nil, err
	}
	obj.Properties = p.popList(height)
	return finish(p, obj, start), nil
}

func (p *parser) parseObjectProperty() (ast.Node, error) {
	start := p.tok.Start
	prop := ast.New(p.arena, ast.Property{Kind: "init"})

	isAsync := false
	isGen := false
	if p.atIdentName("async") {
		save := p.save()
		if err := p.next(); err != nil {
			return nil, err
		}
		if p.atPunct(lexer.OpLParen) || p.atPunct(lexer.OpColon) || p.atPunct(lexer.OpComma) || p.atPunct(lexer.OpRBrace) || p.atPunct(lexer.OpAssign) {
			p.restore(save) // plain property named async
		} else {
			isAsync = true
		}
	}
	if p.atPunct(lexer.OpMul) {
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
		if p.atPunct(lexer.OpLParen) || p.atPunct(lexer.OpColon) || p.atPunct(lexer.OpComma) || p.atPunct(lexer.OpRBrace) || p.atPunct(lexer.OpAssign) {
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
	case prop.Kind == "get" || prop.Kind == "set" || p.atPunct(lexer.OpLParen):
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
		fn := ast.New(p.arena, ast.FunctionExpression{Params: params, Body: body, Generator: isGen, Async: isAsync})
		finish(p, fn, fStart)
		prop.Value = fn
		if prop.Kind == "init" {
			prop.Method = true
		}
	case p.atPunct(lexer.OpColon):
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
		if p.atPunct(lexer.OpAssign) {
			if err := p.next(); err != nil {
				return nil, err
			}
			dflt, err := p.parseAssignment(false)
			if err != nil {
				return nil, err
			}
			ap := ast.New(p.arena, ast.AssignmentPattern{Left: p.cloneIdent(id), Right: dflt})
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
	tpl := ast.New(p.arena, ast.TemplateLiteral{})
	if p.at(lexer.NoSubstTemplate) {
		el := ast.New(p.arena, ast.TemplateElement{Raw: p.tok.Lexeme, Cooked: p.tok.StringValue, Tail: true})
		el.SetRange(p.tokRange())
		if err := p.next(); err != nil {
			return nil, err
		}
		tpl.Quasis = []*ast.TemplateElement{el}
		finish(p, tpl, start)
		return tpl, nil
	}
	if !p.at(lexer.TemplateHead) {
		return nil, p.errorf("expected template literal")
	}
	// The parts go onto the list stack interleaved, quasi first:
	// q0 e0 q1 e1 ... qn. popTemplate splits them.
	height := len(p.list)
	head := ast.New(p.arena, ast.TemplateElement{Raw: p.tok.Lexeme, Cooked: p.tok.StringValue})
	head.SetRange(p.tokRange())
	p.push(head)
	if err := p.next(); err != nil {
		return nil, err
	}
	for {
		expr, err := p.parseExpression(false)
		if err != nil {
			return nil, err
		}
		p.push(expr)
		if !p.atPunct(lexer.OpRBrace) {
			return nil, p.errorf("expected '}' in template substitution, found %q", p.tok.Lexeme)
		}
		tok, err := p.lex.RescanTemplateContinue(p.tok)
		if err != nil {
			return nil, err
		}
		// Replace the '}' with the rescanned template chunk and fetch the
		// token after it.
		p.tok = tok
		el := ast.New(p.arena, ast.TemplateElement{Raw: tok.Lexeme, Cooked: tok.StringValue, Tail: tok.Kind == lexer.TemplateTail})
		el.SetRange(byteRange(tok.Start, tok.End))
		p.push(el)
		isTail := tok.Kind == lexer.TemplateTail
		if err := p.next(); err != nil {
			return nil, err
		}
		if isTail {
			tpl.Quasis, tpl.Expressions = p.popTemplate(height)
			finish(p, tpl, start)
			return tpl, nil
		}
	}
}

// popTemplate closes a template's parts, pushed as q0 e0 q1 ... qn above
// height, into its exact-length quasi and expression lists.
func (p *parser) popTemplate(height int) ([]*ast.TemplateElement, []ast.Node) {
	items := p.list[height:]
	quasis := make([]*ast.TemplateElement, len(items)/2+1)
	exprs := make([]ast.Node, len(items)/2)
	for i, n := range items {
		if i%2 == 0 {
			quasis[i/2] = n.(*ast.TemplateElement)
		} else {
			exprs[i/2] = n
		}
	}
	p.truncList(height)
	return quasis, exprs
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
		pat := ast.New(p.arena, ast.ArrayPattern{})
		pat.SetRange(v.Range())
		if len(v.Elements) > 0 {
			pat.Elements = make([]ast.Node, 0, len(v.Elements))
		}
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
				rest := ast.New(p.arena, ast.RestElement{Argument: arg})
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
		pat := ast.New(p.arena, ast.ObjectPattern{})
		pat.SetRange(v.Range())
		if len(v.Properties) > 0 {
			pat.Properties = make([]ast.Node, 0, len(v.Properties))
		}
		for _, prop := range v.Properties {
			switch pv := prop.(type) {
			case *ast.SpreadElement:
				arg, err := p.toPattern(pv.Argument)
				if err != nil {
					return nil, err
				}
				rest := ast.New(p.arena, ast.RestElement{Argument: arg})
				rest.SetRange(pv.Range())
				pat.Properties = append(pat.Properties, rest)
			case *ast.Property:
				val, err := p.toPattern(pv.Value)
				if err != nil {
					return nil, err
				}
				np := ast.New(p.arena, ast.Property{
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
		ap := ast.New(p.arena, ast.AssignmentPattern{Left: left, Right: v.Right})
		ap.SetRange(v.Range())
		return ap, nil
	default:
		return nil, p.errorf("invalid assignment target %s", expr.NodeKind().String())
	}
}
