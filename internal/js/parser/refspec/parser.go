// Package refspec is a verbatim snapshot of the lexer and parser as they
// stood before the arena/zero-copy overhaul. It is the executable
// specification the differential golden tests compare the live parser
// against (same role as the old n-gram implementation kept by PR 5's golden
// vectors): both packages build ASTs out of the shared internal/js/ast
// types, so printer output, spans, and NodeKind streams can be compared
// node for node.
//
// Nothing outside tests may import this package. The snapshot drops the
// production instrumentation (obs metrics, the Parses counter) so that
// running the spec does not double-count pipeline metrics, but is otherwise
// byte-for-byte the old allocation behavior: every identifier and string
// materialized through a strings.Builder, one heap allocation per AST node.
package refspec

import (
	"fmt"

	"repro/internal/js/ast"
)

// parseError is a parse error with a source position.
type parseError struct {
	Pos ast.Pos
	Msg string
}

func (e *parseError) Error() string {
	return fmt.Sprintf("parse error at line %d col %d: %s", e.Pos.Line, e.Pos.Column, e.Msg)
}

// Result bundles the AST with the lexical information gathered while parsing,
// which the feature extractor consumes (tokens and comments mirror the
// Esprima token collection in the paper's pipeline).
type Result struct {
	Program *ast.Program
	// Tokens holds every lexical unit, in order. It is nil when parsing
	// with ParseNoTokens; NumTokens is filled either way.
	Tokens    []Token
	NumTokens int
	Comments  []Comment
}

// Parse parses JavaScript source text, collecting all tokens.
func Parse(src string) (*Result, error) {
	return parse(src, true)
}

// ParseNoTokens parses without materializing the token slice. The feature
// pipeline uses it: on megabyte-scale minified or JSFuck inputs, storing
// every token costs more than parsing itself, and the features only need
// the token count and the comments.
func ParseNoTokens(src string) (*Result, error) {
	return parse(src, false)
}

func parse(src string, collectTokens bool) (*Result, error) {
	p := &parser{lex: newLexer(src), src: src, collect: collectTokens}
	if err := p.next(); err != nil {
		return nil, err
	}
	prog, err := p.parseProgram()
	if err != nil {
		return nil, err
	}
	return &Result{
		Program:   prog,
		Tokens:    p.tokens,
		NumTokens: p.numTokens,
		Comments:  p.lex.Comments(),
	}, nil
}

// ParseProgram parses source and returns only the AST root (tokens are not
// materialized).
func ParseProgram(src string) (*ast.Program, error) {
	res, err := ParseNoTokens(src)
	if err != nil {
		return nil, err
	}
	return res.Program, nil
}

type parser struct {
	lex     *Lexer
	src     string
	tok     Token
	collect bool
	tokens  []Token
	// numTokens counts consumed tokens even when collect is false.
	numTokens int
	// lastEnd_ is the end offset of the last consumed token, for range
	// stamping.
	lastEnd_ int32

	// depth guards against stack exhaustion on pathological nesting.
	depth int

	// arrowFail records byte offsets where a `(`-led arrow-head attempt
	// already failed, so backtracking retries skip the re-attempt (keeps
	// nested cover-grammar input from going exponential).
	arrowFail map[int32]bool
}

const maxDepth = 2500

func (p *parser) next() error {
	tok, err := p.lex.Next()
	if err != nil {
		return err
	}
	if p.tok.Kind != 0 {
		p.numTokens++
		p.lastEnd_ = p.tok.End.Offset
		if p.collect {
			p.tokens = append(p.tokens, p.tok)
		}
	}
	p.tok = tok
	return nil
}

func (p *parser) errorf(format string, args ...any) error {
	return &parseError{Pos: p.tok.Start, Msg: fmt.Sprintf(format, args...)}
}

// tokSource is the current token's source text, which error messages
// quote. Lexeme is not it for an identifier: this lexer decodes escapes
// into Lexeme, while the arena lexer's Lexeme is always the source slice.
func (p *parser) tokSource() string { return p.src[p.tok.Start.Offset:p.tok.End.Offset] }

func (p *parser) at(kind Kind) bool           { return p.tok.Kind == kind }
func (p *parser) atPunct(s string) bool       { return p.tok.IsPunct(s) }
func (p *parser) atKeyword(s string) bool     { return p.tok.IsKeyword(s) }
func (p *parser) atIdentLexeme(s string) bool { return p.tok.Kind == Ident && p.tok.Lexeme == s }

func (p *parser) expectPunct(s string) error {
	if !p.atPunct(s) {
		return p.errorf("expected %q, found %q", s, p.tokSource())
	}
	return p.next()
}

func (p *parser) expectKeyword(s string) error {
	if !p.atKeyword(s) {
		return p.errorf("expected keyword %q, found %q", s, p.tokSource())
	}
	return p.next()
}

func (p *parser) eatPunct(s string) (bool, error) {
	if p.atPunct(s) {
		return true, p.next()
	}
	return false, nil
}

func (p *parser) enter() error {
	p.depth++
	if p.depth > maxDepth {
		return p.errorf("nesting too deep")
	}
	return nil
}

func (p *parser) leave() { p.depth-- }

func byteRange(start, end int32) ast.Range { return ast.Range{Start: start, End: end} }

// tokRange is the byte range of the current token.
func (p *parser) tokRange() ast.Range { return byteRange(p.tok.Start.Offset, p.tok.End.Offset) }

type rangeSetter interface{ SetRange(ast.Range) }

func (p *parser) finish(n ast.Node, start int32) ast.Node {
	if s, ok := n.(rangeSetter); ok {
		s.SetRange(byteRange(start, p.lastEnd()))
	}
	return n
}

func (p *parser) lastEnd() int32 {
	if p.numTokens > 0 {
		return p.lastEnd_
	}
	return p.tok.Start.Offset
}

// identHere builds an Identifier spanning the current token. It must be
// called before that token is consumed, so the rules and diagnostics always
// see a real source range (position fidelity: no zero-span nodes).
func (p *parser) identHere(name string) *ast.Identifier {
	id := ast.NewIdentifier(name)
	id.SetRange(p.tokRange())
	return id
}

// stringLitHere builds a string Literal spanning the current token. Like
// identHere, it must be called before the token is consumed.
func (p *parser) stringLitHere() *ast.Literal {
	lit := &ast.Literal{Kind: ast.LiteralString, Raw: p.tok.Lexeme, String: p.tok.StringValue}
	lit.SetRange(p.tokRange())
	return lit
}

// cloneIdent copies an identifier including its span (used where patterns
// reuse a parsed name, e.g. shorthand object properties).
func cloneIdent(id *ast.Identifier) *ast.Identifier {
	c := ast.NewIdentifier(id.Name)
	c.SetRange(id.Range())
	return c
}

// ---------------------------------------------------------------------------
// Program and statements
// ---------------------------------------------------------------------------

func (p *parser) parseProgram() (*ast.Program, error) {
	start := p.tok.Start.Offset
	prog := &ast.Program{}
	body, err := p.parseStatementList(true)
	if err != nil {
		return nil, err
	}
	prog.Body = body
	p.finish(prog, start)
	return prog, nil
}

// parseStatementList parses statements until EOF (top) or '}'.
func (p *parser) parseStatementList(top bool) ([]ast.Node, error) {
	var body []ast.Node
	directives := true
	for {
		if p.at(EOF) {
			if top {
				return body, nil
			}
			return nil, p.errorf("unexpected end of input")
		}
		if !top && p.atPunct("}") {
			return body, nil
		}
		stmt, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		if directives {
			if es, ok := stmt.(*ast.ExpressionStatement); ok {
				if lit, ok := es.Expression.(*ast.Literal); ok && lit.Kind == ast.LiteralString {
					es.Directive = lit.String
				} else {
					directives = false
				}
			} else {
				directives = false
			}
		}
		body = append(body, stmt)
	}
}

func (p *parser) parseStatement() (ast.Node, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()

	start := p.tok.Start.Offset
	switch {
	case p.atPunct("{"):
		return p.parseBlock()
	case p.atPunct(";"):
		if err := p.next(); err != nil {
			return nil, err
		}
		return p.finish(&ast.EmptyStatement{}, start), nil
	case p.atKeyword("var"), p.atKeyword("let"), p.atKeyword("const"):
		decl, err := p.parseVariableDeclaration(true)
		if err != nil {
			return nil, err
		}
		return decl, nil
	case p.atKeyword("function"):
		return p.parseFunctionDeclaration(false)
	case p.atKeyword("class"):
		return p.parseClassDeclaration()
	case p.atKeyword("if"):
		return p.parseIf()
	case p.atKeyword("for"):
		return p.parseFor()
	case p.atKeyword("while"):
		return p.parseWhile()
	case p.atKeyword("do"):
		return p.parseDoWhile()
	case p.atKeyword("switch"):
		return p.parseSwitch()
	case p.atKeyword("return"):
		return p.parseReturn()
	case p.atKeyword("throw"):
		return p.parseThrow()
	case p.atKeyword("try"):
		return p.parseTry()
	case p.atKeyword("break"):
		return p.parseBreakContinue(true)
	case p.atKeyword("continue"):
		return p.parseBreakContinue(false)
	case p.atKeyword("debugger"):
		if err := p.next(); err != nil {
			return nil, err
		}
		if err := p.consumeSemicolon(); err != nil {
			return nil, err
		}
		return p.finish(&ast.DebuggerStatement{}, start), nil
	case p.atKeyword("with"):
		return p.parseWith()
	case p.atKeyword("import"):
		return p.parseImport()
	case p.atKeyword("export"):
		return p.parseExport()
	case p.atIdentLexeme("async"):
		// `async function` declaration; otherwise fall through to expression.
		save := p.save()
		if err := p.next(); err != nil {
			return nil, err
		}
		if p.atKeyword("function") && !p.tok.NewlineBefore {
			fn, err := p.parseFunctionDeclaration(true)
			if err != nil {
				return nil, err
			}
			p.finish(fn, start)
			return fn, nil
		}
		p.restore(save)
		return p.parseExpressionStatement()
	case p.at(Ident):
		// Possible labeled statement: `ident :`.
		save := p.save()
		name := p.identHere(p.tok.Lexeme)
		if err := p.next(); err != nil {
			return nil, err
		}
		if p.atPunct(":") {
			if err := p.next(); err != nil {
				return nil, err
			}
			body, err := p.parseStatement()
			if err != nil {
				return nil, err
			}
			lbl := &ast.LabeledStatement{Label: name, Body: body}
			return p.finish(lbl, start), nil
		}
		p.restore(save)
		return p.parseExpressionStatement()
	default:
		return p.parseExpressionStatement()
	}
}

func (p *parser) parseBlock() (*ast.BlockStatement, error) {
	start := p.tok.Start.Offset
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	body, err := p.parseStatementList(false)
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct("}"); err != nil {
		return nil, err
	}
	blk := &ast.BlockStatement{Body: body}
	p.finish(blk, start)
	return blk, nil
}

func (p *parser) parseExpressionStatement() (ast.Node, error) {
	start := p.tok.Start.Offset
	expr, err := p.parseExpression(false)
	if err != nil {
		return nil, err
	}
	if err := p.consumeSemicolon(); err != nil {
		return nil, err
	}
	return p.finish(&ast.ExpressionStatement{Expression: expr}, start), nil
}

// consumeSemicolon applies automatic semicolon insertion.
func (p *parser) consumeSemicolon() error {
	if p.atPunct(";") {
		return p.next()
	}
	if p.atPunct("}") || p.at(EOF) || p.tok.NewlineBefore {
		return nil
	}
	return p.errorf("missing semicolon before %q", p.tokSource())
}

func (p *parser) parseVariableDeclaration(consumeSemi bool) (*ast.VariableDeclaration, error) {
	start := p.tok.Start.Offset
	kind := p.tok.Lexeme
	if err := p.next(); err != nil {
		return nil, err
	}
	decl := &ast.VariableDeclaration{Kind: kind}
	for {
		dStart := p.tok.Start.Offset
		id, err := p.parseBindingTarget()
		if err != nil {
			return nil, err
		}
		d := &ast.VariableDeclarator{ID: id}
		if ok, err := p.eatPunct("="); err != nil {
			return nil, err
		} else if ok {
			init, err := p.parseAssignment(false)
			if err != nil {
				return nil, err
			}
			d.Init = init
		}
		p.finish(d, dStart)
		decl.Declarations = append(decl.Declarations, d)
		if ok, err := p.eatPunct(","); err != nil {
			return nil, err
		} else if !ok {
			break
		}
	}
	if consumeSemi {
		if err := p.consumeSemicolon(); err != nil {
			return nil, err
		}
	}
	p.finish(decl, start)
	return decl, nil
}

func (p *parser) parseIf() (ast.Node, error) {
	start := p.tok.Start.Offset
	if err := p.expectKeyword("if"); err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	test, err := p.parseExpression(false)
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	cons, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	stmt := &ast.IfStatement{Test: test, Consequent: cons}
	if p.atKeyword("else") {
		if err := p.next(); err != nil {
			return nil, err
		}
		alt, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		stmt.Alternate = alt
	}
	return p.finish(stmt, start), nil
}

func (p *parser) parseWhile() (ast.Node, error) {
	start := p.tok.Start.Offset
	if err := p.expectKeyword("while"); err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	test, err := p.parseExpression(false)
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	body, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	return p.finish(&ast.WhileStatement{Test: test, Body: body}, start), nil
}

func (p *parser) parseDoWhile() (ast.Node, error) {
	start := p.tok.Start.Offset
	if err := p.expectKeyword("do"); err != nil {
		return nil, err
	}
	body, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("while"); err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	test, err := p.parseExpression(false)
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	// The semicolon after do-while is always optional.
	if _, err := p.eatPunct(";"); err != nil {
		return nil, err
	}
	return p.finish(&ast.DoWhileStatement{Body: body, Test: test}, start), nil
}

func (p *parser) parseFor() (ast.Node, error) {
	start := p.tok.Start.Offset
	if err := p.expectKeyword("for"); err != nil {
		return nil, err
	}
	isAwait := false
	if p.atKeyword("await") {
		isAwait = true
		if err := p.next(); err != nil {
			return nil, err
		}
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}

	var init ast.Node
	switch {
	case p.atPunct(";"):
		// no init
	case p.atKeyword("var"), p.atKeyword("let"), p.atKeyword("const"):
		decl, err := p.parseForDeclaration()
		if err != nil {
			return nil, err
		}
		init = decl
	default:
		expr, err := p.parseExpression(true)
		if err != nil {
			return nil, err
		}
		init = expr
	}

	if p.atKeyword("in") {
		if err := p.next(); err != nil {
			return nil, err
		}
		left, err := p.forTarget(init)
		if err != nil {
			return nil, err
		}
		right, err := p.parseExpression(false)
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		body, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		return p.finish(&ast.ForInStatement{Left: left, Right: right, Body: body}, start), nil
	}
	if p.atIdentLexeme("of") {
		if err := p.next(); err != nil {
			return nil, err
		}
		left, err := p.forTarget(init)
		if err != nil {
			return nil, err
		}
		right, err := p.parseAssignment(false)
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		body, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		return p.finish(&ast.ForOfStatement{Left: left, Right: right, Body: body, Await: isAwait}, start), nil
	}

	if err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	var test, update ast.Node
	if !p.atPunct(";") {
		t, err := p.parseExpression(false)
		if err != nil {
			return nil, err
		}
		test = t
	}
	if err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	if !p.atPunct(")") {
		u, err := p.parseExpression(false)
		if err != nil {
			return nil, err
		}
		update = u
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	body, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	return p.finish(&ast.ForStatement{Init: init, Test: test, Update: update, Body: body}, start), nil
}

// parseForDeclaration parses `var/let/const target [= init]` without
// consuming a semicolon, stopping before `in`/`of` when appropriate.
func (p *parser) parseForDeclaration() (*ast.VariableDeclaration, error) {
	start := p.tok.Start.Offset
	kind := p.tok.Lexeme
	if err := p.next(); err != nil {
		return nil, err
	}
	decl := &ast.VariableDeclaration{Kind: kind}
	for {
		dStart := p.tok.Start.Offset
		id, err := p.parseBindingTarget()
		if err != nil {
			return nil, err
		}
		d := &ast.VariableDeclarator{ID: id}
		if ok, err := p.eatPunct("="); err != nil {
			return nil, err
		} else if ok {
			init, err := p.parseAssignmentNoIn()
			if err != nil {
				return nil, err
			}
			d.Init = init
		}
		p.finish(d, dStart)
		decl.Declarations = append(decl.Declarations, d)
		if ok, err := p.eatPunct(","); err != nil {
			return nil, err
		} else if !ok {
			break
		}
	}
	p.finish(decl, start)
	return decl, nil
}

// forTarget validates/converts the pre-`in`/`of` part of a for statement.
func (p *parser) forTarget(init ast.Node) (ast.Node, error) {
	if init == nil {
		return nil, p.errorf("missing loop variable")
	}
	if decl, ok := init.(*ast.VariableDeclaration); ok {
		return decl, nil
	}
	return p.toPattern(init)
}

func (p *parser) parseSwitch() (ast.Node, error) {
	start := p.tok.Start.Offset
	if err := p.expectKeyword("switch"); err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	disc, err := p.parseExpression(false)
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	sw := &ast.SwitchStatement{Discriminant: disc}
	for !p.atPunct("}") {
		cStart := p.tok.Start.Offset
		c := &ast.SwitchCase{}
		if p.atKeyword("case") {
			if err := p.next(); err != nil {
				return nil, err
			}
			test, err := p.parseExpression(false)
			if err != nil {
				return nil, err
			}
			c.Test = test
		} else if p.atKeyword("default") {
			if err := p.next(); err != nil {
				return nil, err
			}
		} else {
			return nil, p.errorf("expected case or default, found %q", p.tokSource())
		}
		if err := p.expectPunct(":"); err != nil {
			return nil, err
		}
		for !p.atPunct("}") && !p.atKeyword("case") && !p.atKeyword("default") {
			stmt, err := p.parseStatement()
			if err != nil {
				return nil, err
			}
			c.Consequent = append(c.Consequent, stmt)
		}
		p.finish(c, cStart)
		sw.Cases = append(sw.Cases, c)
	}
	if err := p.expectPunct("}"); err != nil {
		return nil, err
	}
	return p.finish(sw, start), nil
}

func (p *parser) parseReturn() (ast.Node, error) {
	start := p.tok.Start.Offset
	if err := p.expectKeyword("return"); err != nil {
		return nil, err
	}
	ret := &ast.ReturnStatement{}
	// Restricted production: a newline after `return` terminates it.
	if !p.tok.NewlineBefore && !p.atPunct(";") && !p.atPunct("}") && !p.at(EOF) {
		arg, err := p.parseExpression(false)
		if err != nil {
			return nil, err
		}
		ret.Argument = arg
	}
	if err := p.consumeSemicolon(); err != nil {
		return nil, err
	}
	return p.finish(ret, start), nil
}

func (p *parser) parseThrow() (ast.Node, error) {
	start := p.tok.Start.Offset
	if err := p.expectKeyword("throw"); err != nil {
		return nil, err
	}
	if p.tok.NewlineBefore {
		return nil, p.errorf("newline not allowed after throw")
	}
	arg, err := p.parseExpression(false)
	if err != nil {
		return nil, err
	}
	if err := p.consumeSemicolon(); err != nil {
		return nil, err
	}
	return p.finish(&ast.ThrowStatement{Argument: arg}, start), nil
}

func (p *parser) parseTry() (ast.Node, error) {
	start := p.tok.Start.Offset
	if err := p.expectKeyword("try"); err != nil {
		return nil, err
	}
	block, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	stmt := &ast.TryStatement{Block: block}
	if p.atKeyword("catch") {
		cStart := p.tok.Start.Offset
		if err := p.next(); err != nil {
			return nil, err
		}
		clause := &ast.CatchClause{}
		if ok, err := p.eatPunct("("); err != nil {
			return nil, err
		} else if ok {
			param, err := p.parseBindingTarget()
			if err != nil {
				return nil, err
			}
			clause.Param = param
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
		}
		body, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		clause.Body = body
		p.finish(clause, cStart)
		stmt.Handler = clause
	}
	if p.atKeyword("finally") {
		if err := p.next(); err != nil {
			return nil, err
		}
		fin, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		stmt.Finalizer = fin
	}
	if stmt.Handler == nil && stmt.Finalizer == nil {
		return nil, p.errorf("try needs catch or finally")
	}
	return p.finish(stmt, start), nil
}

func (p *parser) parseBreakContinue(isBreak bool) (ast.Node, error) {
	start := p.tok.Start.Offset
	if err := p.next(); err != nil {
		return nil, err
	}
	var label *ast.Identifier
	if p.at(Ident) && !p.tok.NewlineBefore {
		label = p.identHere(p.tok.Lexeme)
		if err := p.next(); err != nil {
			return nil, err
		}
	}
	if err := p.consumeSemicolon(); err != nil {
		return nil, err
	}
	if isBreak {
		return p.finish(&ast.BreakStatement{Label: label}, start), nil
	}
	return p.finish(&ast.ContinueStatement{Label: label}, start), nil
}

func (p *parser) parseWith() (ast.Node, error) {
	start := p.tok.Start.Offset
	if err := p.expectKeyword("with"); err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	obj, err := p.parseExpression(false)
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	body, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	return p.finish(&ast.WithStatement{Object: obj, Body: body}, start), nil
}
