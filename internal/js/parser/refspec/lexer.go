package refspec

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/js/ast"
)

// Error is a lexical error with a source position.
type lexError struct {
	Pos ast.Pos
	Msg string
}

func (e *lexError) Error() string {
	return fmt.Sprintf("lex error at line %d col %d: %s", e.Pos.Line, e.Pos.Column, e.Msg)
}

// Lexer scans JavaScript source into tokens. The zero value is not usable;
// construct with New.
type Lexer struct {
	src  string
	off  int // current byte offset
	line int // current line, 1-based
	col  int // current column, 0-based

	// prev tracks the previous significant token for the regex-vs-division
	// decision.
	prev Token
	// hasPrev is false before the first token.
	hasPrev bool

	// comments collects all comments seen, for token-level features.
	comments []Comment
	// newlineBefore is set while skipping trivia ahead of the next token.
	newlineBefore bool

	// scanned counts tokens produced by Next, including tokens re-scanned
	// after a parser Restore (Restore deliberately does not rewind it).
	// The parser flushes scanned - consumed into the obs registry as
	// lex.tokens_rescanned: the lexing work cover-grammar backtracking
	// repeats.
	scanned int
}

// New returns a lexer over src.
func newLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1}
}

// Comments returns the comments collected so far, in source order.
func (l *Lexer) Comments() []Comment { return l.comments }

// TokensScanned returns the number of tokens Next has produced, counting
// every re-scan after a Restore. Comparing it against the parser's consumed
// token count measures backtracking overhead.
func (l *Lexer) TokensScanned() int { return l.scanned }

func (l *Lexer) pos() ast.Pos {
	return ast.Pos{Offset: int32(l.off), Line: int32(l.line), Column: int32(l.col)}
}

func (l *Lexer) peekByte() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *Lexer) peekByteAt(i int) byte {
	if l.off+i >= len(l.src) {
		return 0
	}
	return l.src[l.off+i]
}

func (l *Lexer) peekRune() (rune, int) {
	if l.off >= len(l.src) {
		return 0, 0
	}
	return utf8.DecodeRuneInString(l.src[l.off:])
}

// advance consumes n bytes that are known to contain no line terminators.
func (l *Lexer) advance(n int) {
	l.off += n
	l.col += n
}

// advanceRune consumes one rune, tracking line/column across terminators.
//
//jslint:hotpath
func (l *Lexer) advanceRune() rune {
	r, size := utf8.DecodeRuneInString(l.src[l.off:])
	l.off += size
	if isLineTerminator(r) {
		// Treat \r\n as a single terminator.
		if r == '\r' && l.peekByte() == '\n' {
			l.off++
		}
		l.line++
		l.col = 0
	} else {
		l.col += size
	}
	return r
}

func isLineTerminator(r rune) bool {
	return r == '\n' || r == '\r' || r == '\u2028' || r == '\u2029'
}

func isWhitespace(r rune) bool {
	switch r {
	case ' ', '\t', '\v', '\f', '\u00a0', '\ufeff':
		return true
	}
	return r != '\n' && r != '\r' && !isLineTerminator(r) && unicode.IsSpace(r)
}

func isIdentStart(r rune) bool {
	return r == '$' || r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '$' || r == '_' || r == '\u200c' || r == '\u200d' ||
		unicode.IsLetter(r) || unicode.IsDigit(r) ||
		unicode.Is(unicode.Mn, r) || unicode.Is(unicode.Mc, r) || unicode.Is(unicode.Pc, r)
}

// skipTrivia consumes whitespace and comments, recording whether a line
// terminator was crossed. It runs once per token over every byte of trivia,
// which makes it the lexer's inner loop: nothing here may allocate beyond the
// amortized growth of the comments slice (and the error construction on the
// unterminated-comment path, which aborts the scan anyway).
//
//jslint:hotpath
func (l *Lexer) skipTrivia() error {
	l.newlineBefore = false
	for l.off < len(l.src) {
		r, _ := l.peekRune()
		switch {
		case isLineTerminator(r):
			l.newlineBefore = true
			l.advanceRune()
		case isWhitespace(r):
			l.advanceRune()
		case r == '/' && l.peekByteAt(1) == '/':
			start := l.pos()
			l.advance(2)
			textStart := l.off
			for l.off < len(l.src) {
				r2, _ := l.peekRune()
				if isLineTerminator(r2) {
					break
				}
				l.advanceRune()
			}
			l.comments = append(l.comments, Comment{
				Span: ast.Span{Start: start, End: l.pos()},
				Text: l.src[textStart:l.off],
			})
		case r == '<' && strings.HasPrefix(l.src[l.off:], "<!--"):
			// HTML open comment: browsers treat the rest of the line as a
			// comment (sloppy-mode web reality).
			start := l.pos()
			l.advance(4)
			textStart := l.off
			for l.off < len(l.src) {
				r2, _ := l.peekRune()
				if isLineTerminator(r2) {
					break
				}
				l.advanceRune()
			}
			l.comments = append(l.comments, Comment{
				Span: ast.Span{Start: start, End: l.pos()},
				Text: l.src[textStart:l.off],
			})
		case r == '-' && l.newlineBefore && strings.HasPrefix(l.src[l.off:], "-->"):
			// HTML close comment at line start: rest of line is a comment.
			start := l.pos()
			l.advance(3)
			textStart := l.off
			for l.off < len(l.src) {
				r2, _ := l.peekRune()
				if isLineTerminator(r2) {
					break
				}
				l.advanceRune()
			}
			l.comments = append(l.comments, Comment{
				Span: ast.Span{Start: start, End: l.pos()},
				Text: l.src[textStart:l.off],
			})
		case r == '/' && l.peekByteAt(1) == '*':
			start := l.pos()
			l.advance(2)
			textStart := l.off
			closed := false
			for l.off < len(l.src) {
				if l.peekByte() == '*' && l.peekByteAt(1) == '/' {
					closed = true
					break
				}
				r2 := l.advanceRune()
				if isLineTerminator(r2) {
					l.newlineBefore = true
				}
			}
			if !closed {
				return &lexError{Pos: start, Msg: "unterminated block comment"} //jslint:ignore hotpath-noalloc error path terminates the scan
			}
			text := l.src[textStart:l.off]
			l.advance(2)
			l.comments = append(l.comments, Comment{
				Span:  ast.Span{Start: start, End: l.pos()},
				Text:  text,
				Block: true,
			})
		default:
			return nil
		}
	}
	return nil
}

// State is an opaque snapshot of lexer progress, used by the parser for
// bounded backtracking (e.g. arrow-function cover grammar).
type State struct {
	off, line, col int
	prev           Token
	hasPrev        bool
	numComments    int
}

// Save captures the current lexer state.
func (l *Lexer) Save() State {
	return State{
		off: l.off, line: l.line, col: l.col,
		prev: l.prev, hasPrev: l.hasPrev,
		numComments: len(l.comments),
	}
}

// Restore rewinds the lexer to a previously saved state.
func (l *Lexer) Restore(s State) {
	l.off, l.line, l.col = s.off, s.line, s.col
	l.prev, l.hasPrev = s.prev, s.hasPrev
	l.comments = l.comments[:s.numComments]
}

// Next returns the next token. At end of input it returns an EOF token.
func (l *Lexer) Next() (Token, error) {
	if err := l.skipTrivia(); err != nil {
		return Token{}, err
	}
	start := l.pos()
	if l.off >= len(l.src) {
		tok := Token{Kind: EOF, Start: start, End: start, NewlineBefore: l.newlineBefore}
		return tok, nil
	}

	r, _ := l.peekRune()
	var tok Token
	var err error
	switch {
	case isIdentStart(r) || r == '\\':
		tok, err = l.scanIdentOrKeyword(start)
	case r >= '0' && r <= '9':
		tok, err = l.scanNumber(start)
	case r == '.' && l.peekByteAt(1) >= '0' && l.peekByteAt(1) <= '9':
		tok, err = l.scanNumber(start)
	case r == '"' || r == '\'':
		tok, err = l.scanString(start, byte(r))
	case r == '`':
		tok, err = l.scanTemplate(start, true)
	case r == '/' && l.regexAllowed():
		tok, err = l.scanRegex(start)
	case r == '#':
		tok, err = l.scanPrivateIdent(start)
	default:
		tok, err = l.scanPunct(start)
	}
	if err != nil {
		return Token{}, err
	}
	tok.NewlineBefore = l.newlineBefore
	l.prev = tok
	l.hasPrev = true
	l.scanned++
	return tok, nil
}

// regexAllowed applies the standard previous-token heuristic for deciding
// whether a leading '/' starts a regular expression or a division operator.
// It runs on every '/' the lexer meets, so it must stay branch-only.
//
//jslint:hotpath
func (l *Lexer) regexAllowed() bool {
	if !l.hasPrev {
		return true
	}
	switch l.prev.Kind {
	case Ident, Number, String, Regex, NoSubstTemplate, TemplateTail, PrivateIdent:
		return false
	case Keyword:
		switch l.prev.Lexeme {
		case "this", "super", "true", "false", "null":
			return false
		}
		return true
	case Punct:
		switch l.prev.Lexeme {
		case ")", "]", "}", "++", "--":
			return false
		}
		return true
	default:
		return true
	}
}

func (l *Lexer) scanIdentOrKeyword(start ast.Pos) (Token, error) {
	var sb strings.Builder
	for l.off < len(l.src) {
		r, _ := l.peekRune()
		if r == '\\' {
			// Unicode escape in identifier: \uXXXX or \u{...}.
			if l.peekByteAt(1) != 'u' {
				return Token{}, &lexError{Pos: l.pos(), Msg: "bad escape in identifier"}
			}
			l.advance(2)
			cp, err := l.scanUnicodeEscape()
			if err != nil {
				return Token{}, err
			}
			// The escaped codepoint must itself be a legal identifier
			// character.
			if sb.Len() == 0 && !isIdentStart(cp) || sb.Len() > 0 && !isIdentPart(cp) {
				return Token{}, &lexError{Pos: start, Msg: fmt.Sprintf("escape %q is not a valid identifier character", cp)}
			}
			sb.WriteRune(cp)
			continue
		}
		if sb.Len() == 0 && !isIdentStart(r) {
			break
		}
		if sb.Len() > 0 && !isIdentPart(r) {
			break
		}
		sb.WriteRune(r)
		l.advanceRune()
	}
	name := sb.String()
	if name == "" {
		return Token{}, &lexError{Pos: start, Msg: "expected identifier"}
	}
	kind := Ident
	if keywords[name] {
		kind = Keyword
	}
	return Token{Kind: kind, Lexeme: name, StringValue: name, Start: start, End: l.pos()}, nil
}

func (l *Lexer) scanPrivateIdent(start ast.Pos) (Token, error) {
	l.advance(1) // '#'
	tok, err := l.scanIdentOrKeyword(l.pos())
	if err != nil {
		return Token{}, err
	}
	tok.Kind = PrivateIdent
	tok.Lexeme = "#" + tok.Lexeme
	tok.Start = start
	return tok, nil
}

// scanUnicodeEscape parses the part after \u: either XXXX or {X...}.
func (l *Lexer) scanUnicodeEscape() (rune, error) {
	if l.peekByte() == '{' {
		l.advance(1)
		startOff := l.off
		// The digits may run over a line terminator before the error that
		// follows is raised, so count lines here.
		for l.off < len(l.src) && l.peekByte() != '}' {
			l.advanceRune()
		}
		if l.off >= len(l.src) {
			return 0, &lexError{Pos: l.pos(), Msg: "unterminated unicode escape"}
		}
		v, err := strconv.ParseUint(l.src[startOff:l.off], 16, 32)
		if err != nil {
			return 0, &lexError{Pos: l.pos(), Msg: "bad unicode escape"}
		}
		l.advance(1) // '}'
		return rune(v), nil
	}
	if l.off+4 > len(l.src) {
		return 0, &lexError{Pos: l.pos(), Msg: "truncated unicode escape"}
	}
	v, err := strconv.ParseUint(l.src[l.off:l.off+4], 16, 32)
	if err != nil {
		return 0, &lexError{Pos: l.pos(), Msg: "bad unicode escape"}
	}
	l.advance(4)
	return rune(v), nil
}

func isHexDigit(b byte) bool {
	return b >= '0' && b <= '9' || b >= 'a' && b <= 'f' || b >= 'A' && b <= 'F'
}

func (l *Lexer) scanNumber(start ast.Pos) (Token, error) {
	startOff := l.off
	digits := func(pred func(byte) bool) {
		for l.off < len(l.src) {
			b := l.peekByte()
			if b == '_' && l.off+1 < len(l.src) && pred(l.src[l.off+1]) {
				l.advance(1)
				continue
			}
			if !pred(b) {
				break
			}
			l.advance(1)
		}
	}
	isDec := func(b byte) bool { return b >= '0' && b <= '9' }

	if l.peekByte() == '0' && l.off+1 < len(l.src) {
		switch l.src[l.off+1] {
		case 'x', 'X':
			l.advance(2)
			digits(isHexDigit)
			return l.finishNumber(start, startOff, 16)
		case 'o', 'O':
			l.advance(2)
			digits(func(b byte) bool { return b >= '0' && b <= '7' })
			return l.finishNumber(start, startOff, 8)
		case 'b', 'B':
			l.advance(2)
			digits(func(b byte) bool { return b == '0' || b == '1' })
			return l.finishNumber(start, startOff, 2)
		}
		// Legacy octal: 0 followed by octal digits only.
		if b := l.src[l.off+1]; b >= '0' && b <= '7' {
			probe := l.off + 1
			legacy := true
			for probe < len(l.src) && isDec(l.src[probe]) {
				if l.src[probe] > '7' {
					legacy = false
				}
				probe++
			}
			if probe < len(l.src) && (l.src[probe] == '.' || l.src[probe] == 'e' || l.src[probe] == 'E') {
				legacy = false
			}
			if legacy {
				l.advance(1)
				digits(func(b byte) bool { return b >= '0' && b <= '7' })
				return l.finishNumber(start, startOff, 8)
			}
		}
	}

	digits(isDec)
	if l.peekByte() == '.' {
		l.advance(1)
		digits(isDec)
	}
	if b := l.peekByte(); b == 'e' || b == 'E' {
		probe := l.off + 1
		if probe < len(l.src) && (l.src[probe] == '+' || l.src[probe] == '-') {
			probe++
		}
		if probe < len(l.src) && isDec(l.src[probe]) {
			l.advance(probe - l.off)
			digits(isDec)
		}
	}
	// BigInt suffix: accept and ignore the 'n'.
	if l.peekByte() == 'n' {
		l.advance(1)
	}
	return l.finishNumber(start, startOff, 10)
}

func (l *Lexer) finishNumber(start ast.Pos, startOff, base int) (Token, error) {
	raw := l.src[startOff:l.off]
	clean := strings.ReplaceAll(strings.TrimSuffix(raw, "n"), "_", "")
	var v float64
	var err error
	switch base {
	case 10:
		v, err = strconv.ParseFloat(clean, 64)
	default:
		var u uint64
		prefix := clean
		if len(prefix) >= 2 && prefix[0] == '0' && !isDecimalDigit(prefix[1]) {
			prefix = prefix[2:]
		} else if base == 8 {
			prefix = strings.TrimPrefix(prefix, "0")
		}
		if prefix == "" {
			prefix = "0"
		}
		u, err = strconv.ParseUint(prefix, base, 64)
		v = float64(u)
	}
	if err != nil {
		return Token{}, &lexError{Pos: start, Msg: fmt.Sprintf("bad number literal %q", raw)}
	}
	return Token{Kind: Number, Lexeme: raw, NumberValue: v, Start: start, End: l.pos()}, nil
}

func isDecimalDigit(b byte) bool { return b >= '0' && b <= '9' }

func (l *Lexer) scanString(start ast.Pos, quote byte) (Token, error) {
	startOff := l.off
	l.advance(1)
	var sb strings.Builder
	for {
		if l.off >= len(l.src) {
			return Token{}, &lexError{Pos: start, Msg: "unterminated string literal"}
		}
		b := l.peekByte()
		if b == quote {
			l.advance(1)
			break
		}
		if b == '\\' {
			l.advance(1)
			if err := l.scanEscape(&sb); err != nil {
				return Token{}, err
			}
			continue
		}
		r, _ := l.peekRune()
		if r == '\n' || r == '\r' {
			return Token{}, &lexError{Pos: l.pos(), Msg: "newline in string literal"}
		}
		sb.WriteRune(r)
		l.advanceRune()
	}
	return Token{
		Kind:        String,
		Lexeme:      l.src[startOff:l.off],
		StringValue: sb.String(),
		Start:       start,
		End:         l.pos(),
	}, nil
}

// scanEscape decodes one escape sequence after the backslash.
func (l *Lexer) scanEscape(sb *strings.Builder) error {
	if l.off >= len(l.src) {
		return &lexError{Pos: l.pos(), Msg: "truncated escape sequence"}
	}
	r, _ := l.peekRune()
	if isLineTerminator(r) {
		// Line continuation: consumed, contributes nothing.
		l.advanceRune()
		return nil
	}
	switch r {
	case 'n':
		sb.WriteByte('\n')
	case 't':
		sb.WriteByte('\t')
	case 'r':
		sb.WriteByte('\r')
	case 'b':
		sb.WriteByte('\b')
	case 'f':
		sb.WriteByte('\f')
	case 'v':
		sb.WriteByte('\v')
	case '0':
		// \0 not followed by a digit is NUL; otherwise legacy octal.
		if !isDecimalDigit(l.peekByteAt(1)) {
			sb.WriteByte(0)
			l.advance(1)
			return nil
		}
		return l.scanOctalEscape(sb)
	case '1', '2', '3', '4', '5', '6', '7':
		return l.scanOctalEscape(sb)
	case 'x':
		l.advance(1)
		if l.off+2 > len(l.src) || !isHexDigit(l.src[l.off]) || !isHexDigit(l.src[l.off+1]) {
			return &lexError{Pos: l.pos(), Msg: "bad hex escape"}
		}
		v, _ := strconv.ParseUint(l.src[l.off:l.off+2], 16, 16)
		sb.WriteRune(rune(v))
		l.advance(2)
		return nil
	case 'u':
		l.advance(1)
		cp, err := l.scanUnicodeEscape()
		if err != nil {
			return err
		}
		sb.WriteRune(cp)
		return nil
	default:
		sb.WriteRune(r)
	}
	l.advanceRune()
	return nil
}

func (l *Lexer) scanOctalEscape(sb *strings.Builder) error {
	v := 0
	for i := 0; i < 3 && l.off < len(l.src); i++ {
		b := l.peekByte()
		if b < '0' || b > '7' {
			break
		}
		next := v*8 + int(b-'0')
		if next > 255 {
			break
		}
		v = next
		l.advance(1)
	}
	sb.WriteRune(rune(v))
	return nil
}

// scanTemplate scans a template chunk. When head is true the scanner starts
// at a backtick; otherwise it starts at the '}' that closes a substitution.
func (l *Lexer) scanTemplate(start ast.Pos, head bool) (Token, error) {
	startOff := l.off
	l.advance(1) // '`' or '}'
	var sb strings.Builder
	for {
		if l.off >= len(l.src) {
			return Token{}, &lexError{Pos: start, Msg: "unterminated template literal"}
		}
		b := l.peekByte()
		if b == '`' {
			l.advance(1)
			kind := TemplateTail
			if head {
				kind = NoSubstTemplate
			}
			return Token{
				Kind:        kind,
				Lexeme:      l.src[startOff:l.off],
				StringValue: sb.String(),
				Start:       start,
				End:         l.pos(),
			}, nil
		}
		if b == '$' && l.peekByteAt(1) == '{' {
			l.advance(2)
			kind := TemplateMiddle
			if head {
				kind = TemplateHead
			}
			return Token{
				Kind:        kind,
				Lexeme:      l.src[startOff:l.off],
				StringValue: sb.String(),
				Start:       start,
				End:         l.pos(),
			}, nil
		}
		if b == '\\' {
			l.advance(1)
			if err := l.scanEscape(&sb); err != nil {
				return Token{}, err
			}
			continue
		}
		// A CR or CRLF cooks as one LF, as ECMAScript normalizes line
		// terminators in template values.
		if r := l.advanceRune(); r == '\r' {
			sb.WriteByte('\n')
		} else {
			sb.WriteRune(r)
		}
	}
}

// RescanTemplateContinue is called by the parser when, inside a template
// substitution, it has consumed a '}' token that actually continues the
// template. The lexer rewinds to the '}' and scans a TemplateMiddle or
// TemplateTail token from there.
func (l *Lexer) RescanTemplateContinue(closeBrace Token) (Token, error) {
	l.off = int(closeBrace.Start.Offset)
	l.line = int(closeBrace.Start.Line)
	l.col = int(closeBrace.Start.Column)
	tok, err := l.scanTemplate(closeBrace.Start, false)
	if err != nil {
		return Token{}, err
	}
	tok.NewlineBefore = closeBrace.NewlineBefore
	l.prev = tok
	l.hasPrev = true
	return tok, nil
}

func (l *Lexer) scanRegex(start ast.Pos) (Token, error) {
	startOff := l.off
	l.advance(1) // '/'
	inClass := false
	for {
		if l.off >= len(l.src) {
			return Token{}, &lexError{Pos: start, Msg: "unterminated regular expression"}
		}
		r, _ := l.peekRune()
		if isLineTerminator(r) {
			return Token{}, &lexError{Pos: l.pos(), Msg: "newline in regular expression"}
		}
		if r == '\\' {
			l.advance(1)
			if l.off < len(l.src) {
				l.advanceRune()
			}
			continue
		}
		switch r {
		case '[':
			inClass = true
		case ']':
			inClass = false
		case '/':
			if !inClass {
				patEnd := l.off
				l.advance(1)
				flagsStart := l.off
				for l.off < len(l.src) {
					fr, _ := l.peekRune()
					if !isIdentPart(fr) {
						break
					}
					l.advanceRune()
				}
				return Token{
					Kind:         Regex,
					Lexeme:       l.src[startOff:l.off],
					RegexPattern: l.src[startOff+1 : patEnd],
					RegexFlags:   l.src[flagsStart:l.off],
					Start:        start,
					End:          l.pos(),
				}, nil
			}
		}
		l.advanceRune()
	}
}

// punctsByFirst groups multi-character punctuators by first byte, longest
// first, so scanPunct only tests candidates sharing the lead byte.
var punctsByFirst = map[byte][]string{
	'>': {">>>=", ">>>", ">>=", ">=", ">>", ">"},
	'.': {"...", "."},
	'=': {"===", "=>", "==", "="},
	'!': {"!==", "!=", "!"},
	'*': {"**=", "*=", "**", "*"},
	'<': {"<<=", "<=", "<<", "<"},
	'&': {"&&=", "&&", "&=", "&"},
	'|': {"||=", "||", "|=", "|"},
	'?': {"??=", "?.", "??", "?"},
	'+': {"++", "+=", "+"},
	'-': {"--", "-=", "-"},
	'/': {"/=", "/"},
	'%': {"%=", "%"},
	'^': {"^=", "^"},
	'{': {"{"}, '}': {"}"}, '(': {"("}, ')': {")"}, '[': {"["}, ']': {"]"},
	';': {";"}, ',': {","}, '~': {"~"}, ':': {":"}, '@': {"@"},
}

func (l *Lexer) scanPunct(start ast.Pos) (Token, error) {
	rest := l.src[l.off:]
	if len(rest) > 0 {
		for _, p := range punctsByFirst[rest[0]] {
			if strings.HasPrefix(rest, p) {
				// `?.` followed by a digit is a ternary, e.g. `a?.5:b`.
				if p == "?." && len(rest) > 2 && isDecimalDigit(rest[2]) {
					continue
				}
				l.advance(len(p))
				return Token{Kind: Punct, Lexeme: p, Start: start, End: l.pos()}, nil
			}
		}
	}
	r, _ := l.peekRune()
	return Token{}, &lexError{Pos: start, Msg: fmt.Sprintf("unexpected character %q", r)}
}
