// Package parser implements a recursive-descent JavaScript parser producing
// the Esprima-compatible AST from internal/js/ast. It covers ES5 plus the
// ES2015+ constructs that appear in real-world transformed code: let/const,
// arrow functions, classes, template literals, destructuring patterns,
// default/rest parameters, spread, for-of, async/await, optional chaining,
// and exponentiation. Automatic semicolon insertion follows the standard
// rules, including the restricted productions.
package parser

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/js/ast"
	"repro/internal/js/lexer"
	"repro/internal/obs"
)

// parses counts completed parse attempts (successful or not) process-wide.
// The batch scanner's tests read it through Parses to assert that a scan
// touches each input exactly once, even when classification, explanation,
// and feature extraction all consume the same file.
var parses atomic.Int64

// Parses returns the number of parse attempts since process start. It is a
// test hook for parse-once assertions, not a performance counter.
func Parses() int64 { return parses.Load() }

// Error is a parse error with a source position. The parser builds it with
// the offset alone and resolves the line and column once, for the error it
// returns.
type Error struct {
	Pos ast.Pos
	Msg string
}

func (e *Error) Error() string {
	return fmt.Sprintf("parse error at line %d col %d: %s", e.Pos.Line, e.Pos.Column, e.Msg)
}

// Result bundles the AST with the lexical information gathered while parsing,
// which the feature extractor consumes (tokens and comments mirror the
// Esprima token collection in the paper's pipeline). Every AST node hangs
// off the arena embedded in the Result, so the whole tree dies with it;
// nothing may retain node pointers past the Result they came from.
type Result struct {
	Program *ast.Program
	// Tokens holds every lexical unit, in order. It is nil when parsing
	// with ParseNoTokens; NumTokens is filled either way.
	Tokens    []lexer.Token
	NumTokens int
	Comments  []lexer.Comment

	// Kinds is the pre-order stream of interned node kinds, recorded while
	// stamping dense NodeIDs onto the tree (Program.NodeCount is set by the
	// same walk). The n-gram extractor consumes it directly instead of
	// re-walking the tree; the stream is bit-identical to a fresh EachChild
	// pre-order walk. It is owned by the Result.
	Kinds []uint16

	// arena owns the storage of every node reachable from Program. It
	// lives in the Result (not the reusable parser) so a pooled parser
	// cannot hand one file's nodes to the next.
	arena ast.Arena

	// src is the parsed source; text memoizes its byte statistics.
	src      string
	textOnce sync.Once
	text     lexer.TextStats
}

// TextStats returns the byte statistics of the parsed source. The one pass
// over the bytes runs the first time any consumer asks, so the rules'
// Context and the hand-picked features share it.
func (r *Result) TextStats() lexer.TextStats {
	r.textOnce.Do(func() { r.text = lexer.ComputeTextStats(r.src) })
	return r.text
}

// Session is a reusable parser. A Session parses one file at a time and
// recycles its token buffer, lexer state, comment buffer, and arrow-head
// memo table across parses — a scanner worker that parses many files
// should hold one Session instead of paying the warm-up allocations per
// file. The zero value is ready to use; Sessions are not safe for
// concurrent use.
type Session struct {
	p parser
}

// NewSession returns an empty parser session.
func NewSession() *Session { return &Session{} }

// Parse parses JavaScript source text, collecting all tokens.
func (s *Session) Parse(src string) (*Result, error) { return s.p.parse(src, true, true) }

// ParseNoTokens parses without materializing the token slice. The feature
// pipeline uses it: on megabyte-scale minified or JSFuck inputs, storing
// every token costs more than parsing itself, and the features only need
// the token count and the comments.
func (s *Session) ParseNoTokens(src string) (*Result, error) { return s.p.parse(src, false, true) }

// sessions recycles parser state for the package-level entry points, so
// one-shot callers still amortize parser warm-up across files.
var sessions = sync.Pool{New: func() any { return NewSession() }}

// Parse parses JavaScript source text, collecting all tokens.
func Parse(src string) (*Result, error) {
	s := sessions.Get().(*Session)
	defer sessions.Put(s)
	return s.Parse(src)
}

// ParseNoTokens parses without materializing the token slice; see
// Session.ParseNoTokens.
func ParseNoTokens(src string) (*Result, error) {
	s := sessions.Get().(*Session)
	defer sessions.Put(s)
	return s.ParseNoTokens(src)
}

// reset re-arms the parser for a new file. This is the hard reset contract
// behind Session reuse: every piece of per-file state is cleared here (the
// token buffer, memo table, and comment buffer keep their capacity but not
// their contents), and the arena is never reused — it belongs to the
// previous Result.
func (p *parser) reset(src string, collectTokens bool) {
	p.lex.Reset(src)
	p.src = src
	p.tok = lexer.Token{}
	p.collect = collectTokens
	p.tokens = p.tokens[:0]
	p.numTokens = 0
	p.lastEnd_ = 0
	p.depth = 0
	clear(p.arrowFail)
	p.arena = nil
	p.truncList(0)
}

// checkSourceLen rejects a source too long for the int32 offsets that
// nodes, tokens and comments carry, so no offset ever wraps.
func checkSourceLen(n int) error {
	if n > math.MaxInt32 {
		return &Error{Msg: fmt.Sprintf("source is %d bytes; offsets are 32-bit, so at most %d are parsed", n, math.MaxInt32)}
	}
	return nil
}

func (p *parser) parse(src string, collectTokens, collectKinds bool) (res *Result, err error) {
	parses.Add(1)
	if err := checkSourceLen(len(src)); err != nil {
		return nil, err
	}
	p.reset(src, collectTokens)
	out := &Result{src: src}
	p.arena = &out.arena
	if obs.Enabled() {
		stop := obs.Time("parse.duration")
		defer func() {
			stop()
			obs.Add("parse.files", 1)
			obs.Add("parse.bytes", int64(len(src)))
			obs.Observe("parse.file_bytes", obs.UnitBytes, int64(len(src)))
			obs.Add("lex.tokens", int64(p.lex.TokensScanned()))
			obs.Add("lex.comments", int64(len(p.lex.Comments())))
			if err != nil {
				obs.Add("parse.errors", 1)
			} else {
				obs.Add("parse.tokens", int64(p.numTokens))
			}
			// Backtracking happens on failed parses too; recording the
			// re-scan count only on success would skew lexer metrics on
			// error-heavy corpora.
			if rescans := p.lex.TokensScanned() - p.numTokens; rescans > 0 {
				obs.Add("lex.tokens_rescanned", int64(rescans))
			}
		}()
	}
	if err := p.next(); err != nil {
		return nil, locate(src, err)
	}
	prog, err := p.parseProgram()
	if err != nil {
		// A failed parse leaves the open lists' items on the stack.
		p.truncList(0)
		return nil, locate(src, err)
	}
	out.Program = prog
	// Stamp dense pre-order NodeIDs and collect the kind stream in the same
	// walk. The arena's node count pre-sizes the stream exactly, so this is
	// one traversal and (when the caller keeps the Result, and so can feed
	// the stream to the feature extractor) one allocation per file;
	// ParseProgram-style callers that drop the Result skip the allocation
	// and get the stamping alone.
	if p.stamper == nil {
		p.stamper = ast.NewIDStamper()
	}
	if collectKinds {
		out.Kinds = p.stamper.Stamp(prog, make([]uint16, 0, out.arena.NodeCount()))
	} else {
		p.stamper.StampIDs(prog)
	}
	// The token and comment buffers belong to the reusable parser; the
	// Result must own its slices so the next parse cannot clobber them.
	if p.collect {
		out.Tokens = append([]lexer.Token(nil), p.tokens...)
	}
	out.NumTokens = p.numTokens
	out.Comments = append([]lexer.Comment(nil), p.lex.Comments()...)
	return out, nil
}

// locate resolves the line and column of the error a parse returns. Errors
// are built with their offset alone, so the ones cover-grammar backtracking
// throws away never pay for a line table.
func locate(src string, err error) error {
	switch e := err.(type) {
	case *Error:
		e.Pos = ast.NewLines(src).Pos(e.Pos.Offset)
	case *lexer.Error:
		e.Pos = ast.NewLines(src).Pos(e.Pos.Offset)
	}
	return err
}

// ParseProgram parses source and returns only the AST root (tokens are not
// materialized, and neither is the kind stream — callers that drop the
// Result cannot use it).
func ParseProgram(src string) (*ast.Program, error) {
	s := sessions.Get().(*Session)
	defer sessions.Put(s)
	res, err := s.p.parse(src, false, false)
	if err != nil {
		return nil, err
	}
	return res.Program, nil
}

type parser struct {
	// lex is embedded by value so a Session is one object: resetting it
	// reuses the lexer's comment buffer in place.
	lex     lexer.Lexer
	src     string
	tok     lexer.Token
	collect bool
	tokens  []lexer.Token
	// numTokens counts consumed tokens even when collect is false.
	numTokens int
	// lastEnd_ is the end offset of the last consumed token, for range
	// stamping.
	lastEnd_ int32

	// depth guards against stack exhaustion on pathological nesting.
	depth int

	// list is the scratch stack node lists are built on (see push). Its
	// backing array is reused across files; every slot at or above
	// len(list) is nil, so it keeps no finished file's nodes reachable.
	list []ast.Node

	// arrowFail records byte offsets where a `(`-led arrow-head attempt
	// already failed, so backtracking retries skip the re-attempt (keeps
	// nested cover-grammar input from going exponential).
	arrowFail map[int32]bool

	// arena allocates every AST node of the current parse. It points into
	// the Result under construction and is never pooled: a fresh parse
	// gets a fresh arena so earlier Results keep sole ownership of their
	// nodes.
	arena *ast.Arena

	// stamper assigns dense pre-order NodeIDs after a successful parse. It
	// is reused across files (its pre-bound visit hook is the only state)
	// and retains nothing between parses.
	stamper *ast.IDStamper
}

const maxDepth = 2500

func (p *parser) next() error {
	if p.tok.Kind != 0 {
		p.numTokens++
		p.lastEnd_ = p.tok.End
		if p.collect {
			p.tokens = append(p.tokens, p.tok)
		}
	}
	// NextInto writes the new token straight into p.tok — the lexer and
	// parser share the one Token slot, so no 96-byte struct is copied
	// per token.
	return p.lex.NextInto(&p.tok)
}

func (p *parser) errorf(format string, args ...any) error {
	return &Error{Pos: ast.Pos{Offset: p.tok.Start}, Msg: fmt.Sprintf(format, args...)}
}

// at, atPunct, and atKeyword test fields on p.tok directly rather than
// going through the Token value-receiver helpers, which would copy the
// whole 96-byte struct on every probe. Punctuator and keyword codes share
// one space and every other token carries OpNone, so atPunct and atKeyword
// are the same one-byte compare; the two names say which kind the caller
// expects.
func (p *parser) at(kind lexer.Kind) bool    { return p.tok.Kind == kind }
func (p *parser) atPunct(op lexer.Op) bool   { return p.tok.Op == op }
func (p *parser) atKeyword(op lexer.Op) bool { return p.tok.Op == op }
func (p *parser) atIdentName(s string) bool {
	return p.tok.Kind == lexer.Ident && p.tok.StringValue == s
}

func (p *parser) expectPunct(op lexer.Op) error {
	if !p.atPunct(op) {
		return p.errorf("expected %q, found %q", op.String(), p.tok.Lexeme)
	}
	return p.next()
}

func (p *parser) expectKeyword(op lexer.Op) error {
	if !p.atKeyword(op) {
		return p.errorf("expected keyword %q, found %q", op.String(), p.tok.Lexeme)
	}
	return p.next()
}

func (p *parser) eatPunct(op lexer.Op) (bool, error) {
	if p.atPunct(op) {
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
func (p *parser) tokRange() ast.Range { return byteRange(p.tok.Start, p.tok.End) }

type rangeSetter interface{ SetRange(ast.Range) }

// finish stamps the node's byte range, from start to the end of the last
// consumed token, and hands the node back. It is generic over the concrete
// node type: the old signature took an ast.Node and asserted to an
// interface, which cost an interface-to-interface itab lookup on every node
// built (visible on the parse profile). Every concrete node embeds
// ast.base, so the constraint is always satisfied.
//
//jslint:hotpath
func finish[T rangeSetter](p *parser, n T, start int32) T {
	n.SetRange(byteRange(start, p.lastEnd()))
	return n
}

func (p *parser) lastEnd() int32 {
	if p.numTokens > 0 {
		return p.lastEnd_
	}
	return p.tok.Start
}

// identHere builds an Identifier spanning the current token. It must be
// called before that token is consumed, so the rules and diagnostics always
// see a real source range (position fidelity: no zero-span nodes).
func (p *parser) identHere(name string) *ast.Identifier {
	id := ast.New(p.arena, ast.Identifier{Name: name})
	id.SetRange(p.tokRange())
	return id
}

// stringLitHere builds a string Literal spanning the current token. Like
// identHere, it must be called before the token is consumed.
func (p *parser) stringLitHere() *ast.Literal {
	lit := ast.New(p.arena, ast.Literal{Kind: ast.LiteralString, Raw: p.tok.Lexeme, String: p.tok.StringValue})
	lit.SetRange(p.tokRange())
	return lit
}

// cloneIdent copies an identifier including its span (used where patterns
// reuse a parsed name, e.g. shorthand object properties).
func (p *parser) cloneIdent(id *ast.Identifier) *ast.Identifier {
	c := ast.New(p.arena, ast.Identifier{Name: id.Name})
	c.SetRange(id.Range())
	return c
}

// Node lists. Every list the parser builds (statement bodies, arguments,
// parameters, elements, properties, declarations, switch cases, template
// parts, specifiers) pushes its items onto p.list above the height it
// opened at, and copies them out once, at exact length, when it closes, so
// building a list never regrows a slice. Lists nest: an inner list opens
// and closes above the outer list's items before the outer one pushes
// again. save records the height and restore truncates back to it, so a
// backtracked attempt leaves nothing on the stack.

// push appends one item to the innermost open list.
func (p *parser) push(n ast.Node) { p.list = append(p.list, n) }

// truncList drops the items above height, clearing their slots.
func (p *parser) truncList(height int) {
	clear(p.list[height:])
	p.list = p.list[:height]
}

// popList closes the list opened at height: it copies the items above
// height into the arena at exact length (nil for an empty list) and
// truncates the stack back to height.
func (p *parser) popList(height int) []ast.Node {
	out := p.arena.List(p.list[height:])
	p.truncList(height)
	return out
}

// popListOf is popList for a list of one concrete node type, which gets
// its own exact-length slice.
func popListOf[T ast.Node](p *parser, height int) []T {
	items := p.list[height:]
	if len(items) == 0 {
		return nil
	}
	out := make([]T, len(items))
	for i, n := range items {
		out[i] = n.(T)
	}
	p.truncList(height)
	return out
}

// ---------------------------------------------------------------------------
// Program and statements
// ---------------------------------------------------------------------------

func (p *parser) parseProgram() (*ast.Program, error) {
	start := p.tok.Start
	prog := ast.New(p.arena, ast.Program{})
	body, err := p.parseStatementList(true)
	if err != nil {
		return nil, err
	}
	prog.Body = body
	finish(p, prog, start)
	return prog, nil
}

// parseStatementList parses statements until EOF (top) or '}'.
func (p *parser) parseStatementList(top bool) ([]ast.Node, error) {
	height := len(p.list)
	directives := true
	for {
		if p.at(lexer.EOF) {
			if top {
				return p.popList(height), nil
			}
			return nil, p.errorf("unexpected end of input")
		}
		if !top && p.atPunct(lexer.OpRBrace) {
			return p.popList(height), nil
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
		p.push(stmt)
	}
}

func (p *parser) parseStatement() (ast.Node, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()

	start := p.tok.Start
	switch p.tok.Op {
	case lexer.OpLBrace:
		return p.parseBlock()
	case lexer.OpSemicolon:
		if err := p.next(); err != nil {
			return nil, err
		}
		return finish(p, ast.New(p.arena, ast.EmptyStatement{}), start), nil
	case lexer.OpVar, lexer.OpLet, lexer.OpConst:
		decl, err := p.parseVariableDeclaration(true)
		if err != nil {
			return nil, err
		}
		return decl, nil
	case lexer.OpFunction:
		return p.parseFunctionDeclaration(false)
	case lexer.OpClass:
		return p.parseClassDeclaration()
	case lexer.OpIf:
		return p.parseIf()
	case lexer.OpFor:
		return p.parseFor()
	case lexer.OpWhile:
		return p.parseWhile()
	case lexer.OpDo:
		return p.parseDoWhile()
	case lexer.OpSwitch:
		return p.parseSwitch()
	case lexer.OpReturn:
		return p.parseReturn()
	case lexer.OpThrow:
		return p.parseThrow()
	case lexer.OpTry:
		return p.parseTry()
	case lexer.OpBreak:
		return p.parseBreakContinue(true)
	case lexer.OpContinue:
		return p.parseBreakContinue(false)
	case lexer.OpDebugger:
		if err := p.next(); err != nil {
			return nil, err
		}
		if err := p.consumeSemicolon(); err != nil {
			return nil, err
		}
		return finish(p, ast.New(p.arena, ast.DebuggerStatement{}), start), nil
	case lexer.OpWith:
		return p.parseWith()
	case lexer.OpImport:
		return p.parseImport()
	case lexer.OpExport:
		return p.parseExport()
	}
	if !p.at(lexer.Ident) {
		return p.parseExpressionStatement()
	}
	if p.tok.StringValue == "async" {
		// `async function` declaration; otherwise fall through to expression.
		save := p.save()
		if err := p.next(); err != nil {
			return nil, err
		}
		if p.atKeyword(lexer.OpFunction) && !p.tok.NewlineBefore {
			fn, err := p.parseFunctionDeclaration(true)
			if err != nil {
				return nil, err
			}
			finish(p, fn, start)
			return fn, nil
		}
		p.restore(save)
		return p.parseExpressionStatement()
	}
	// Possible labeled statement: `ident :`.
	save := p.save()
	name := p.identHere(p.tok.StringValue)
	if err := p.next(); err != nil {
		return nil, err
	}
	if p.atPunct(lexer.OpColon) {
		if err := p.next(); err != nil {
			return nil, err
		}
		body, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		lbl := ast.New(p.arena, ast.LabeledStatement{Label: name, Body: body})
		return finish(p, lbl, start), nil
	}
	p.restore(save)
	return p.parseExpressionStatement()
}

func (p *parser) parseBlock() (*ast.BlockStatement, error) {
	start := p.tok.Start
	if err := p.expectPunct(lexer.OpLBrace); err != nil {
		return nil, err
	}
	body, err := p.parseStatementList(false)
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(lexer.OpRBrace); err != nil {
		return nil, err
	}
	blk := ast.New(p.arena, ast.BlockStatement{Body: body})
	finish(p, blk, start)
	return blk, nil
}

func (p *parser) parseExpressionStatement() (ast.Node, error) {
	start := p.tok.Start
	expr, err := p.parseExpression(false)
	if err != nil {
		return nil, err
	}
	if err := p.consumeSemicolon(); err != nil {
		return nil, err
	}
	return finish(p, ast.New(p.arena, ast.ExpressionStatement{Expression: expr}), start), nil
}

// consumeSemicolon applies automatic semicolon insertion.
func (p *parser) consumeSemicolon() error {
	if p.atPunct(lexer.OpSemicolon) {
		return p.next()
	}
	if p.atPunct(lexer.OpRBrace) || p.at(lexer.EOF) || p.tok.NewlineBefore {
		return nil
	}
	return p.errorf("missing semicolon before %q", p.tok.Lexeme)
}

func (p *parser) parseVariableDeclaration(consumeSemi bool) (*ast.VariableDeclaration, error) {
	start := p.tok.Start
	kind := p.tok.StringValue
	if err := p.next(); err != nil {
		return nil, err
	}
	decl := ast.New(p.arena, ast.VariableDeclaration{Kind: kind})
	height := len(p.list)
	for {
		dStart := p.tok.Start
		id, err := p.parseBindingTarget()
		if err != nil {
			return nil, err
		}
		d := ast.New(p.arena, ast.VariableDeclarator{ID: id})
		if ok, err := p.eatPunct(lexer.OpAssign); err != nil {
			return nil, err
		} else if ok {
			init, err := p.parseAssignment(false)
			if err != nil {
				return nil, err
			}
			d.Init = init
		}
		finish(p, d, dStart)
		p.push(d)
		if ok, err := p.eatPunct(lexer.OpComma); err != nil {
			return nil, err
		} else if !ok {
			break
		}
	}
	decl.Declarations = popListOf[*ast.VariableDeclarator](p, height)
	if consumeSemi {
		if err := p.consumeSemicolon(); err != nil {
			return nil, err
		}
	}
	finish(p, decl, start)
	return decl, nil
}

func (p *parser) parseIf() (ast.Node, error) {
	start := p.tok.Start
	if err := p.expectKeyword(lexer.OpIf); err != nil {
		return nil, err
	}
	if err := p.expectPunct(lexer.OpLParen); err != nil {
		return nil, err
	}
	test, err := p.parseExpression(false)
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(lexer.OpRParen); err != nil {
		return nil, err
	}
	cons, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	stmt := ast.New(p.arena, ast.IfStatement{Test: test, Consequent: cons})
	if p.atKeyword(lexer.OpElse) {
		if err := p.next(); err != nil {
			return nil, err
		}
		alt, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		stmt.Alternate = alt
	}
	return finish(p, stmt, start), nil
}

func (p *parser) parseWhile() (ast.Node, error) {
	start := p.tok.Start
	if err := p.expectKeyword(lexer.OpWhile); err != nil {
		return nil, err
	}
	if err := p.expectPunct(lexer.OpLParen); err != nil {
		return nil, err
	}
	test, err := p.parseExpression(false)
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(lexer.OpRParen); err != nil {
		return nil, err
	}
	body, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	return finish(p, ast.New(p.arena, ast.WhileStatement{Test: test, Body: body}), start), nil
}

func (p *parser) parseDoWhile() (ast.Node, error) {
	start := p.tok.Start
	if err := p.expectKeyword(lexer.OpDo); err != nil {
		return nil, err
	}
	body, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword(lexer.OpWhile); err != nil {
		return nil, err
	}
	if err := p.expectPunct(lexer.OpLParen); err != nil {
		return nil, err
	}
	test, err := p.parseExpression(false)
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(lexer.OpRParen); err != nil {
		return nil, err
	}
	// The semicolon after do-while is always optional.
	if _, err := p.eatPunct(lexer.OpSemicolon); err != nil {
		return nil, err
	}
	return finish(p, ast.New(p.arena, ast.DoWhileStatement{Body: body, Test: test}), start), nil
}

func (p *parser) parseFor() (ast.Node, error) {
	start := p.tok.Start
	if err := p.expectKeyword(lexer.OpFor); err != nil {
		return nil, err
	}
	isAwait := false
	if p.atKeyword(lexer.OpAwait) {
		isAwait = true
		if err := p.next(); err != nil {
			return nil, err
		}
	}
	if err := p.expectPunct(lexer.OpLParen); err != nil {
		return nil, err
	}

	var init ast.Node
	switch {
	case p.atPunct(lexer.OpSemicolon):
		// no init
	case p.atKeyword(lexer.OpVar), p.atKeyword(lexer.OpLet), p.atKeyword(lexer.OpConst):
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

	if p.atKeyword(lexer.OpIn) {
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
		if err := p.expectPunct(lexer.OpRParen); err != nil {
			return nil, err
		}
		body, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		return finish(p, ast.New(p.arena, ast.ForInStatement{Left: left, Right: right, Body: body}), start), nil
	}
	if p.atIdentName("of") {
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
		if err := p.expectPunct(lexer.OpRParen); err != nil {
			return nil, err
		}
		body, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		return finish(p, ast.New(p.arena, ast.ForOfStatement{Left: left, Right: right, Body: body, Await: isAwait}), start), nil
	}

	if err := p.expectPunct(lexer.OpSemicolon); err != nil {
		return nil, err
	}
	var test, update ast.Node
	if !p.atPunct(lexer.OpSemicolon) {
		t, err := p.parseExpression(false)
		if err != nil {
			return nil, err
		}
		test = t
	}
	if err := p.expectPunct(lexer.OpSemicolon); err != nil {
		return nil, err
	}
	if !p.atPunct(lexer.OpRParen) {
		u, err := p.parseExpression(false)
		if err != nil {
			return nil, err
		}
		update = u
	}
	if err := p.expectPunct(lexer.OpRParen); err != nil {
		return nil, err
	}
	body, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	return finish(p, ast.New(p.arena, ast.ForStatement{Init: init, Test: test, Update: update, Body: body}), start), nil
}

// parseForDeclaration parses `var/let/const target [= init]` without
// consuming a semicolon, stopping before `in`/`of` when appropriate.
func (p *parser) parseForDeclaration() (*ast.VariableDeclaration, error) {
	start := p.tok.Start
	kind := p.tok.StringValue
	if err := p.next(); err != nil {
		return nil, err
	}
	decl := ast.New(p.arena, ast.VariableDeclaration{Kind: kind})
	height := len(p.list)
	for {
		dStart := p.tok.Start
		id, err := p.parseBindingTarget()
		if err != nil {
			return nil, err
		}
		d := ast.New(p.arena, ast.VariableDeclarator{ID: id})
		if ok, err := p.eatPunct(lexer.OpAssign); err != nil {
			return nil, err
		} else if ok {
			init, err := p.parseAssignmentNoIn()
			if err != nil {
				return nil, err
			}
			d.Init = init
		}
		finish(p, d, dStart)
		p.push(d)
		if ok, err := p.eatPunct(lexer.OpComma); err != nil {
			return nil, err
		} else if !ok {
			break
		}
	}
	decl.Declarations = popListOf[*ast.VariableDeclarator](p, height)
	finish(p, decl, start)
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
	start := p.tok.Start
	if err := p.expectKeyword(lexer.OpSwitch); err != nil {
		return nil, err
	}
	if err := p.expectPunct(lexer.OpLParen); err != nil {
		return nil, err
	}
	disc, err := p.parseExpression(false)
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(lexer.OpRParen); err != nil {
		return nil, err
	}
	if err := p.expectPunct(lexer.OpLBrace); err != nil {
		return nil, err
	}
	sw := ast.New(p.arena, ast.SwitchStatement{Discriminant: disc})
	cases := len(p.list)
	for !p.atPunct(lexer.OpRBrace) {
		cStart := p.tok.Start
		c := ast.New(p.arena, ast.SwitchCase{})
		if p.atKeyword(lexer.OpCase) {
			if err := p.next(); err != nil {
				return nil, err
			}
			test, err := p.parseExpression(false)
			if err != nil {
				return nil, err
			}
			c.Test = test
		} else if p.atKeyword(lexer.OpDefault) {
			if err := p.next(); err != nil {
				return nil, err
			}
		} else {
			return nil, p.errorf("expected case or default, found %q", p.tok.Lexeme)
		}
		if err := p.expectPunct(lexer.OpColon); err != nil {
			return nil, err
		}
		body := len(p.list)
		for !p.atPunct(lexer.OpRBrace) && !p.atKeyword(lexer.OpCase) && !p.atKeyword(lexer.OpDefault) {
			stmt, err := p.parseStatement()
			if err != nil {
				return nil, err
			}
			p.push(stmt)
		}
		c.Consequent = p.popList(body)
		finish(p, c, cStart)
		p.push(c)
	}
	sw.Cases = popListOf[*ast.SwitchCase](p, cases)
	if err := p.expectPunct(lexer.OpRBrace); err != nil {
		return nil, err
	}
	return finish(p, sw, start), nil
}

func (p *parser) parseReturn() (ast.Node, error) {
	start := p.tok.Start
	if err := p.expectKeyword(lexer.OpReturn); err != nil {
		return nil, err
	}
	ret := ast.New(p.arena, ast.ReturnStatement{})
	// Restricted production: a newline after `return` terminates it.
	if !p.tok.NewlineBefore && !p.atPunct(lexer.OpSemicolon) && !p.atPunct(lexer.OpRBrace) && !p.at(lexer.EOF) {
		arg, err := p.parseExpression(false)
		if err != nil {
			return nil, err
		}
		ret.Argument = arg
	}
	if err := p.consumeSemicolon(); err != nil {
		return nil, err
	}
	return finish(p, ret, start), nil
}

func (p *parser) parseThrow() (ast.Node, error) {
	start := p.tok.Start
	if err := p.expectKeyword(lexer.OpThrow); err != nil {
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
	return finish(p, ast.New(p.arena, ast.ThrowStatement{Argument: arg}), start), nil
}

func (p *parser) parseTry() (ast.Node, error) {
	start := p.tok.Start
	if err := p.expectKeyword(lexer.OpTry); err != nil {
		return nil, err
	}
	block, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	stmt := ast.New(p.arena, ast.TryStatement{Block: block})
	if p.atKeyword(lexer.OpCatch) {
		cStart := p.tok.Start
		if err := p.next(); err != nil {
			return nil, err
		}
		clause := ast.New(p.arena, ast.CatchClause{})
		if ok, err := p.eatPunct(lexer.OpLParen); err != nil {
			return nil, err
		} else if ok {
			param, err := p.parseBindingTarget()
			if err != nil {
				return nil, err
			}
			clause.Param = param
			if err := p.expectPunct(lexer.OpRParen); err != nil {
				return nil, err
			}
		}
		body, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		clause.Body = body
		finish(p, clause, cStart)
		stmt.Handler = clause
	}
	if p.atKeyword(lexer.OpFinally) {
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
	return finish(p, stmt, start), nil
}

func (p *parser) parseBreakContinue(isBreak bool) (ast.Node, error) {
	start := p.tok.Start
	if err := p.next(); err != nil {
		return nil, err
	}
	var label *ast.Identifier
	if p.at(lexer.Ident) && !p.tok.NewlineBefore {
		label = p.identHere(p.tok.StringValue)
		if err := p.next(); err != nil {
			return nil, err
		}
	}
	if err := p.consumeSemicolon(); err != nil {
		return nil, err
	}
	if isBreak {
		return finish(p, ast.New(p.arena, ast.BreakStatement{Label: label}), start), nil
	}
	return finish(p, ast.New(p.arena, ast.ContinueStatement{Label: label}), start), nil
}

func (p *parser) parseWith() (ast.Node, error) {
	start := p.tok.Start
	if err := p.expectKeyword(lexer.OpWith); err != nil {
		return nil, err
	}
	if err := p.expectPunct(lexer.OpLParen); err != nil {
		return nil, err
	}
	obj, err := p.parseExpression(false)
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(lexer.OpRParen); err != nil {
		return nil, err
	}
	body, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	return finish(p, ast.New(p.arena, ast.WithStatement{Object: obj, Body: body}), start), nil
}
