package lexer

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/js/ast"
)

// Error is a lexical error with a source position. The lexer fills in only
// the offset; the parser resolves the line and column, through ast.Lines,
// of the one error it returns.
type Error struct {
	Pos ast.Pos
	Msg string
}

func (e *Error) Error() string {
	return fmt.Sprintf("lex error at line %d col %d: %s", e.Pos.Line, e.Pos.Column, e.Msg)
}

// Lexer scans JavaScript source into tokens. Construct with New, or reuse a
// zero/used Lexer by calling Reset.
//
// Positions are byte offsets only: tokens, comments and errors carry them,
// and ast.Lines turns an offset into a line and column when one is
// reported, so no scan loop counts lines.
//
// Token values are zero-copy: for tokens without escapes (the overwhelming
// majority), Lexeme and StringValue are slices of the source buffer. Only
// tokens that actually contain escape sequences (or the cases where the
// decoded value cannot equal the raw bytes: invalid UTF-8 and '\r' in
// templates) fall back to a strings.Builder on a separate slow path.
type Lexer struct {
	src string
	off int // current byte offset

	// prevKind and prevWord track the previous significant token for the
	// regex-vs-division decision. Only the kind plus one string matter
	// (the keyword name or the punctuator), so storing them beats copying
	// a full Token on every Next.
	prevKind Kind
	prevWord string
	// hasPrev is false before the first token.
	hasPrev bool

	// comments collects all comments seen, for token-level features. Reset
	// truncates rather than frees it, so a pooled lexer reuses the backing
	// array across files; anyone retaining comments past the parse must
	// copy them out.
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
func New(src string) *Lexer {
	l := &Lexer{}
	l.Reset(src)
	return l
}

// Reset re-arms the lexer over new source, clearing every piece of
// per-file state: position, previous-token memory, the re-scan counter,
// and the comment buffer (truncated, keeping its capacity for reuse).
// This is the hard reset contract pooled parsers rely on — after Reset,
// scanning must be indistinguishable from a New lexer.
func (l *Lexer) Reset(src string) {
	l.src = src
	l.off = 0
	l.prevKind = 0
	l.prevWord = ""
	l.hasPrev = false
	l.comments = l.comments[:0]
	l.newlineBefore = false
	l.scanned = 0
}

// Comments returns the comments collected so far, in source order. The
// slice aliases the lexer's internal buffer; it is invalidated by Reset.
func (l *Lexer) Comments() []Comment { return l.comments }

// TokensScanned returns the number of tokens Next has produced, counting
// every re-scan after a Restore. Comparing it against the parser's consumed
// token count measures backtracking overhead.
func (l *Lexer) TokensScanned() int { return l.scanned }

// pos reports the current offset. The parser rejects sources of 2 GiB or
// more before lexing, so the conversion never wraps.
func (l *Lexer) pos() int32 { return int32(l.off) }

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

// advance consumes n bytes.
func (l *Lexer) advance(n int) { l.off += n }

// advanceRune consumes one rune. A CR takes the LF after it along: CRLF is
// one line terminator, both to a line continuation and to a template's
// cooked value.
//
//jslint:hotpath
func (l *Lexer) advanceRune() rune {
	r, size := utf8.DecodeRuneInString(l.src[l.off:])
	l.off += size
	if r == '\r' && l.peekByte() == '\n' {
		l.off++
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

// identStartByte and identPartByte answer isIdentStart/isIdentPart for
// ASCII in one table load, keeping the identifier fast loop branch-free.
var identStartByte, identPartByte = func() (start, part [128]bool) {
	for b := 0; b < 128; b++ {
		c := byte(b)
		s := c == '$' || c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
		start[b] = s
		part[b] = s || c >= '0' && c <= '9'
	}
	return
}()

// skipTrivia consumes whitespace and comments, recording whether a line
// terminator was crossed. It runs once per token over every byte of trivia,
// which makes it the lexer's inner loop: the common ASCII whitespace bytes
// are dispatched without a rune decode, and nothing here may allocate beyond
// the amortized growth of the comments slice (and the error construction on
// the unterminated-comment path, which aborts the scan anyway).
//
//jslint:hotpath
func (l *Lexer) skipTrivia() error {
	l.newlineBefore = false
	for l.off < len(l.src) {
		b := l.src[l.off]
		switch b {
		case ' ', '\t', '\v', '\f':
			l.off++
			continue
		case '\n', '\r':
			l.off++
			l.newlineBefore = true
			continue
		}
		if b < utf8.RuneSelf {
			switch {
			case b == '/' && l.peekByteAt(1) == '/':
				l.lineComment(2)
			case b == '<' && strings.HasPrefix(l.src[l.off:], "<!--"):
				// HTML open comment: browsers treat the rest of the line as a
				// comment (sloppy-mode web reality).
				l.lineComment(4)
			case b == '-' && l.newlineBefore && strings.HasPrefix(l.src[l.off:], "-->"):
				// HTML close comment at line start: rest of line is a comment.
				l.lineComment(3)
			case b == '/' && l.peekByteAt(1) == '*':
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
					return &Error{Pos: ast.Pos{Offset: start}, Msg: "unterminated block comment"} //jslint:ignore hotpath-noalloc error path terminates the scan
				}
				text := l.src[textStart:l.off]
				l.advance(2)
				l.comments = append(l.comments, Comment{
					Range: ast.Range{Start: start, End: l.pos()},
					Text:  text,
					Block: true,
				})
			default:
				return nil
			}
			continue
		}
		// Non-ASCII trivia (NBSP, BOM, U+2028/U+2029, exotic spaces) is rare
		// enough to pay for a rune decode.
		r, _ := l.peekRune()
		switch {
		case isLineTerminator(r):
			l.newlineBefore = true
			l.advanceRune()
		case isWhitespace(r):
			l.advanceRune()
		default:
			return nil
		}
	}
	return nil
}

// lineComment consumes a comment that runs to the end of the line: the
// n-byte opener (//, <!-- or -->) and the text after it.
//
//jslint:hotpath
func (l *Lexer) lineComment(n int) {
	start := l.pos()
	l.advance(n)
	textStart := l.off
	for l.off < len(l.src) {
		if r, _ := l.peekRune(); isLineTerminator(r) {
			break
		}
		l.advanceRune()
	}
	l.comments = append(l.comments, Comment{
		Range: ast.Range{Start: start, End: l.pos()},
		Text:  l.src[textStart:l.off],
	})
}

// State is an opaque snapshot of lexer progress, used by the parser for
// bounded backtracking (e.g. arrow-function cover grammar).
type State struct {
	off         int
	prevKind    Kind
	prevWord    string
	hasPrev     bool
	numComments int
}

// Save captures the current lexer state.
func (l *Lexer) Save() State {
	return State{
		off: l.off, prevKind: l.prevKind, prevWord: l.prevWord, hasPrev: l.hasPrev,
		numComments: len(l.comments),
	}
}

// Restore rewinds the lexer to a previously saved state.
func (l *Lexer) Restore(s State) {
	l.off = s.off
	l.prevKind, l.prevWord, l.hasPrev = s.prevKind, s.prevWord, s.hasPrev
	l.comments = l.comments[:s.numComments]
}

// Next returns the next token. At end of input it returns an EOF token.
func (l *Lexer) Next() (Token, error) {
	var tok Token
	err := l.NextInto(&tok)
	return tok, err
}

// NextInto scans the next token into *tok, the copy-free form of Next: the
// parser hands in its own current-token slot and every scanner writes the
// fields in place, so a 96-byte Token is never passed through three
// return frames per token. On error *tok is the zero Token. Dispatch is on
// the lead byte; only non-ASCII lead bytes decode a rune.
//
//jslint:hotpath
func (l *Lexer) NextInto(tok *Token) error {
	if err := l.skipTrivia(); err != nil {
		*tok = Token{}
		return err
	}
	start := l.pos()
	if l.off >= len(l.src) {
		*tok = Token{Kind: EOF, Start: start, End: start, NewlineBefore: l.newlineBefore}
		return nil
	}

	b := l.src[l.off]
	var err error
	switch {
	case b < utf8.RuneSelf && identStartByte[b] || b == '\\':
		err = l.scanIdentOrKeyword(start, tok)
	case b >= '0' && b <= '9':
		err = l.scanNumber(start, tok)
	case b == '.' && l.peekByteAt(1) >= '0' && l.peekByteAt(1) <= '9':
		err = l.scanNumber(start, tok)
	case b == '"' || b == '\'':
		err = l.scanString(start, b, tok)
	case b == '`':
		err = l.scanTemplate(start, true, tok)
	case b == '/' && l.regexAllowed():
		err = l.scanRegex(start, tok)
	case b == '#':
		err = l.scanPrivateIdent(start, tok)
	case b >= utf8.RuneSelf:
		r, _ := l.peekRune()
		if isIdentStart(r) {
			err = l.scanIdentOrKeyword(start, tok)
		} else {
			err = l.scanPunct(start, tok)
		}
	default:
		err = l.scanPunct(start, tok)
	}
	if err != nil {
		*tok = Token{}
		return err
	}
	tok.NewlineBefore = l.newlineBefore
	l.rememberPrev(tok)
	l.scanned++
	return nil
}

// rememberPrev records the pieces of tok that regexAllowed consults: the
// kind, plus the keyword name or punctuator text.
//
//jslint:hotpath
func (l *Lexer) rememberPrev(tok *Token) {
	l.prevKind = tok.Kind
	switch tok.Kind {
	case Keyword:
		l.prevWord = tok.StringValue
	case Punct:
		l.prevWord = tok.Lexeme
	default:
		l.prevWord = ""
	}
	l.hasPrev = true
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
	switch l.prevKind {
	case Ident, Number, String, Regex, NoSubstTemplate, TemplateTail, PrivateIdent:
		return false
	case Keyword:
		switch l.prevWord {
		case "this", "super", "true", "false", "null":
			return false
		}
		return true
	case Punct:
		switch l.prevWord {
		case ")", "]", "}", "++", "--":
			return false
		}
		return true
	default:
		return true
	}
}

// scanIdentOrKeyword scans an identifier or keyword. The fast path is a
// byte loop over ASCII identifier characters that slices both Lexeme and
// StringValue out of the source buffer; a '\' diverts to scanIdentSlow,
// which is the only way an identifier token ever owns memory.
//
//jslint:hotpath
func (l *Lexer) scanIdentOrKeyword(start int32, tok *Token) error {
	startOff := l.off
	for l.off < len(l.src) {
		b := l.src[l.off]
		if b < utf8.RuneSelf {
			if b == '\\' {
				return l.scanIdentSlow(start, startOff, tok)
			}
			if l.off == startOff {
				if !identStartByte[b] {
					break
				}
			} else if !identPartByte[b] {
				break
			}
			l.off++
			continue
		}
		r, size := utf8.DecodeRuneInString(l.src[l.off:])
		if l.off == startOff && !isIdentStart(r) || l.off > startOff && !isIdentPart(r) {
			break
		}
		l.off += size
	}
	name := l.src[startOff:l.off]
	if name == "" {
		return &Error{Pos: ast.Pos{Offset: start}, Msg: "expected identifier"} //jslint:ignore hotpath-noalloc error path terminates the scan
	}
	kind := Ident
	if isKeywordName(name) {
		kind = Keyword
	}
	tok.Kind = kind
	tok.Lexeme = name
	tok.StringValue = name
	tok.Start = start
	tok.End = l.pos()
	tok.NumberValue = 0
	tok.RegexPattern = ""
	tok.RegexFlags = ""
	return nil
}

// scanIdentSlow finishes an identifier that contains at least one unicode
// escape. The clean prefix already consumed by the fast path seeds the
// builder; Lexeme stays the raw source slice while StringValue owns the
// decoded name.
func (l *Lexer) scanIdentSlow(start int32, startOff int, tok *Token) error {
	var sb strings.Builder
	sb.WriteString(l.src[startOff:l.off])
	for l.off < len(l.src) {
		r, _ := l.peekRune()
		if r == '\\' {
			// Unicode escape in identifier: \uXXXX or \u{...}.
			if l.peekByteAt(1) != 'u' {
				return &Error{Pos: ast.Pos{Offset: l.pos()}, Msg: "bad escape in identifier"}
			}
			l.advance(2)
			cp, err := l.scanUnicodeEscape()
			if err != nil {
				return err
			}
			// The escaped codepoint must itself be a legal identifier
			// character.
			if sb.Len() == 0 && !isIdentStart(cp) || sb.Len() > 0 && !isIdentPart(cp) {
				return &Error{Pos: ast.Pos{Offset: start}, Msg: fmt.Sprintf("escape %q is not a valid identifier character", cp)}
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
		return &Error{Pos: ast.Pos{Offset: start}, Msg: "expected identifier"}
	}
	kind := Ident
	if isKeywordName(name) {
		kind = Keyword
	}
	*tok = Token{Kind: kind, Lexeme: l.src[startOff:l.off], StringValue: name, Start: start, End: l.pos()}
	return nil
}

// scanPrivateIdent scans #name. Lexeme is the raw source slice including
// the '#'; StringValue is "#" + the decoded name. For the escape-free case
// both are the same slice of the source buffer — the old per-token
// "#"+lexeme concatenation only survives on the rare escaped path.
//
//jslint:hotpath
func (l *Lexer) scanPrivateIdent(start int32, tok *Token) error {
	l.advance(1) // '#'
	if err := l.scanIdentOrKeyword(l.pos(), tok); err != nil {
		return err
	}
	tok.Kind = PrivateIdent
	tok.Lexeme = l.src[start:l.off]
	if len(tok.StringValue) == len(tok.Lexeme)-1 {
		// Escape-free: the decoded name is the raw name, so the decoded
		// private name is the raw lexeme.
		tok.StringValue = tok.Lexeme
	} else {
		tok.StringValue = "#" + tok.StringValue //jslint:ignore hotpath-noalloc escaped private names are rare and need owned decoded memory
	}
	tok.Start = start
	return nil
}

// scanUnicodeEscape parses the part after \u: either XXXX or {X...}.
func (l *Lexer) scanUnicodeEscape() (rune, error) {
	if l.peekByte() == '{' {
		l.advance(1)
		startOff := l.off
		for l.off < len(l.src) && l.peekByte() != '}' {
			l.advance(1)
		}
		if l.off >= len(l.src) {
			return 0, &Error{Pos: ast.Pos{Offset: l.pos()}, Msg: "unterminated unicode escape"}
		}
		v, err := strconv.ParseUint(l.src[startOff:l.off], 16, 32)
		if err != nil {
			return 0, &Error{Pos: ast.Pos{Offset: l.pos()}, Msg: "bad unicode escape"}
		}
		l.advance(1) // '}'
		return rune(v), nil
	}
	if l.off+4 > len(l.src) {
		return 0, &Error{Pos: ast.Pos{Offset: l.pos()}, Msg: "truncated unicode escape"}
	}
	v, err := strconv.ParseUint(l.src[l.off:l.off+4], 16, 32)
	if err != nil {
		return 0, &Error{Pos: ast.Pos{Offset: l.pos()}, Msg: "bad unicode escape"}
	}
	l.advance(4)
	return rune(v), nil
}

func isHexDigit(b byte) bool {
	return b >= '0' && b <= '9' || b >= 'a' && b <= 'f' || b >= 'A' && b <= 'F'
}

func isDecimalDigit(b byte) bool { return b >= '0' && b <= '9' }

func isOctalDigit(b byte) bool { return b >= '0' && b <= '7' }

func isBinaryDigit(b byte) bool { return b == '0' || b == '1' }

// digits consumes a run of digits accepted by pred, allowing numeric
// separators between digits. A method rather than a closure so scanNumber
// does not allocate a capture per number token.
//
//jslint:hotpath
func (l *Lexer) digits(pred func(byte) bool) {
	for l.off < len(l.src) {
		b := l.src[l.off]
		if b == '_' && l.off+1 < len(l.src) && pred(l.src[l.off+1]) {
			l.off++
			continue
		}
		if !pred(b) {
			break
		}
		l.off++
	}
}

//jslint:hotpath
func (l *Lexer) scanNumber(start int32, tok *Token) error {
	startOff := l.off

	if l.peekByte() == '0' && l.off+1 < len(l.src) {
		switch l.src[l.off+1] {
		case 'x', 'X':
			l.advance(2)
			l.digits(isHexDigit)
			return l.finishNumber(start, startOff, 16, tok)
		case 'o', 'O':
			l.advance(2)
			l.digits(isOctalDigit)
			return l.finishNumber(start, startOff, 8, tok)
		case 'b', 'B':
			l.advance(2)
			l.digits(isBinaryDigit)
			return l.finishNumber(start, startOff, 2, tok)
		}
		// Legacy octal: 0 followed by octal digits only.
		if b := l.src[l.off+1]; b >= '0' && b <= '7' {
			probe := l.off + 1
			legacy := true
			for probe < len(l.src) && isDecimalDigit(l.src[probe]) {
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
				l.digits(isOctalDigit)
				return l.finishNumber(start, startOff, 8, tok)
			}
		}
	}

	l.digits(isDecimalDigit)
	if l.peekByte() == '.' {
		l.advance(1)
		l.digits(isDecimalDigit)
	}
	if b := l.peekByte(); b == 'e' || b == 'E' {
		probe := l.off + 1
		if probe < len(l.src) && (l.src[probe] == '+' || l.src[probe] == '-') {
			probe++
		}
		if probe < len(l.src) && isDecimalDigit(l.src[probe]) {
			l.advance(probe - l.off)
			l.digits(isDecimalDigit)
		}
	}
	// BigInt suffix: accept and ignore the 'n'.
	if l.peekByte() == 'n' {
		l.advance(1)
	}
	return l.finishNumber(start, startOff, 10, tok)
}

// finishNumber parses the numeric value. Lexeme is always the raw source
// slice; the ReplaceAll/TrimSuffix cleanup returns the input unchanged (no
// copy) for the common separator-free literal.
//
//jslint:hotpath
func (l *Lexer) finishNumber(start int32, startOff, base int, tok *Token) error {
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
		return &Error{Pos: ast.Pos{Offset: start}, Msg: fmt.Sprintf("bad number literal %q", raw)} //jslint:ignore hotpath-noalloc error path terminates the scan
	}
	*tok = Token{Kind: Number, Lexeme: raw, NumberValue: v, Start: start, End: l.pos()}
	return nil
}

// scanString scans a quoted string literal. The fast path is a byte loop
// that, on an escape-free literal, slices StringValue out of the source
// between the quotes. It diverts to scanStringSlow on a backslash and on
// invalid UTF-8 (which decodes to U+FFFD), the only inputs whose decoded
// value cannot alias the raw bytes.
//
//jslint:hotpath
func (l *Lexer) scanString(start int32, quote byte, tok *Token) error {
	startOff := l.off
	l.off++ // opening quote
	for l.off < len(l.src) {
		b := l.src[l.off]
		switch {
		case b == quote:
			l.off++
			raw := l.src[startOff:l.off]
			*tok = Token{
				Kind:        String,
				Lexeme:      raw,
				StringValue: raw[1 : len(raw)-1],
				Start:       start,
				End:         l.pos(),
			}
			return nil
		case b == '\\':
			return l.scanStringSlow(start, startOff, quote, tok)
		case b == '\n' || b == '\r':
			return &Error{Pos: ast.Pos{Offset: l.pos()}, Msg: "newline in string literal"} //jslint:ignore hotpath-noalloc error path terminates the scan
		case b < utf8.RuneSelf:
			l.off++
		default:
			r, size := utf8.DecodeRuneInString(l.src[l.off:])
			if r == utf8.RuneError && size == 1 {
				return l.scanStringSlow(start, startOff, quote, tok)
			}
			l.off += size
		}
	}
	return &Error{Pos: ast.Pos{Offset: start}, Msg: "unterminated string literal"} //jslint:ignore hotpath-noalloc error path terminates the scan
}

// scanStringSlow finishes a string literal whose decoded value differs
// from its raw bytes. The clean prefix already consumed by the fast path
// seeds the builder.
func (l *Lexer) scanStringSlow(start int32, startOff int, quote byte, tok *Token) error {
	var sb strings.Builder
	sb.WriteString(l.src[startOff+1 : l.off])
	for {
		if l.off >= len(l.src) {
			return &Error{Pos: ast.Pos{Offset: start}, Msg: "unterminated string literal"}
		}
		b := l.peekByte()
		if b == quote {
			l.advance(1)
			break
		}
		if b == '\\' {
			l.advance(1)
			if err := l.scanEscape(&sb); err != nil {
				return err
			}
			continue
		}
		r, _ := l.peekRune()
		if r == '\n' || r == '\r' {
			return &Error{Pos: ast.Pos{Offset: l.pos()}, Msg: "newline in string literal"}
		}
		sb.WriteRune(r)
		l.advanceRune()
	}
	*tok = Token{
		Kind:        String,
		Lexeme:      l.src[startOff:l.off],
		StringValue: sb.String(),
		Start:       start,
		End:         l.pos(),
	}
	return nil
}

// scanEscape decodes one escape sequence after the backslash.
func (l *Lexer) scanEscape(sb *strings.Builder) error {
	if l.off >= len(l.src) {
		return &Error{Pos: ast.Pos{Offset: l.pos()}, Msg: "truncated escape sequence"}
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
			return &Error{Pos: ast.Pos{Offset: l.pos()}, Msg: "bad hex escape"}
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
// The fast path slices the cooked value out of the source between the
// delimiters; it diverts to scanTemplateSlow on a backslash and on the
// inputs where cooked != raw: '\r' (CRLF is one terminator) and invalid
// UTF-8.
//
//jslint:hotpath
func (l *Lexer) scanTemplate(start int32, head bool, tok *Token) error {
	startOff := l.off
	l.off++ // '`' or '}'
	for l.off < len(l.src) {
		b := l.src[l.off]
		switch {
		case b == '`':
			l.off++
			kind := TemplateTail
			if head {
				kind = NoSubstTemplate
			}
			raw := l.src[startOff:l.off]
			*tok = Token{
				Kind:        kind,
				Lexeme:      raw,
				StringValue: raw[1 : len(raw)-1],
				Start:       start,
				End:         l.pos(),
			}
			return nil
		case b == '$' && l.off+1 < len(l.src) && l.src[l.off+1] == '{':
			l.off += 2
			kind := TemplateMiddle
			if head {
				kind = TemplateHead
			}
			raw := l.src[startOff:l.off]
			*tok = Token{
				Kind:        kind,
				Lexeme:      raw,
				StringValue: raw[1 : len(raw)-2],
				Start:       start,
				End:         l.pos(),
			}
			return nil
		case b == '\\' || b == '\r':
			return l.scanTemplateSlow(start, startOff, head, tok)
		case b < utf8.RuneSelf:
			l.off++
		default:
			r, size := utf8.DecodeRuneInString(l.src[l.off:])
			if r == utf8.RuneError && size == 1 {
				return l.scanTemplateSlow(start, startOff, head, tok)
			}
			l.off += size
		}
	}
	return &Error{Pos: ast.Pos{Offset: start}, Msg: "unterminated template literal"} //jslint:ignore hotpath-noalloc error path terminates the scan
}

// scanTemplateSlow finishes a template chunk whose cooked value differs
// from its raw bytes (escapes, CRLF, invalid UTF-8). The clean prefix
// already consumed by the fast path seeds the builder.
func (l *Lexer) scanTemplateSlow(start int32, startOff int, head bool, tok *Token) error {
	var sb strings.Builder
	sb.WriteString(l.src[startOff+1 : l.off])
	for {
		if l.off >= len(l.src) {
			return &Error{Pos: ast.Pos{Offset: start}, Msg: "unterminated template literal"}
		}
		b := l.peekByte()
		if b == '`' {
			l.advance(1)
			kind := TemplateTail
			if head {
				kind = NoSubstTemplate
			}
			*tok = Token{
				Kind:        kind,
				Lexeme:      l.src[startOff:l.off],
				StringValue: sb.String(),
				Start:       start,
				End:         l.pos(),
			}
			return nil
		}
		if b == '$' && l.peekByteAt(1) == '{' {
			l.advance(2)
			kind := TemplateMiddle
			if head {
				kind = TemplateHead
			}
			*tok = Token{
				Kind:        kind,
				Lexeme:      l.src[startOff:l.off],
				StringValue: sb.String(),
				Start:       start,
				End:         l.pos(),
			}
			return nil
		}
		if b == '\\' {
			l.advance(1)
			if err := l.scanEscape(&sb); err != nil {
				return err
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
	l.off = int(closeBrace.Start)
	var tok Token
	if err := l.scanTemplate(closeBrace.Start, false, &tok); err != nil {
		return Token{}, err
	}
	tok.NewlineBefore = closeBrace.NewlineBefore
	l.rememberPrev(&tok)
	return tok, nil
}

func (l *Lexer) scanRegex(start int32, tok *Token) error {
	startOff := l.off
	l.advance(1) // '/'
	inClass := false
	for {
		if l.off >= len(l.src) {
			return &Error{Pos: ast.Pos{Offset: start}, Msg: "unterminated regular expression"}
		}
		r, _ := l.peekRune()
		if isLineTerminator(r) {
			return &Error{Pos: ast.Pos{Offset: l.pos()}, Msg: "newline in regular expression"}
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
				*tok = Token{
					Kind:         Regex,
					Lexeme:       l.src[startOff:l.off],
					RegexPattern: l.src[startOff+1 : patEnd],
					RegexFlags:   l.src[flagsStart:l.off],
					Start:        start,
					End:          l.pos(),
				}
				return nil
			}
		}
		l.advanceRune()
	}
}

// punctsByFirst groups multi-character punctuators by first byte, longest
// first, so scanPunct only tests candidates sharing the lead byte. An array
// indexed by the byte keeps the per-token dispatch hash-free.
var punctsByFirst = [utf8.RuneSelf][]string{
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

//jslint:hotpath
func (l *Lexer) scanPunct(start int32, tok *Token) error {
	rest := l.src[l.off:]
	if len(rest) > 0 && rest[0] < utf8.RuneSelf {
		for _, p := range punctsByFirst[rest[0]] {
			if strings.HasPrefix(rest, p) {
				// `?.` followed by a digit is a ternary, e.g. `a?.5:b`.
				if p == "?." && len(rest) > 2 && isDecimalDigit(rest[2]) {
					continue
				}
				l.advance(len(p))
				// Explicit field stores: a Token{...} literal assignment
				// builds a temporary and duffcopies it into *tok, which
				// shows up on profiles for punct-heavy minified input.
				tok.Kind = Punct
				tok.Lexeme = p
				tok.Start = start
				tok.End = l.pos()
				tok.StringValue = ""
				tok.NumberValue = 0
				tok.RegexPattern = ""
				tok.RegexFlags = ""
				return nil
			}
		}
	}
	r, _ := l.peekRune()
	return &Error{Pos: ast.Pos{Offset: start}, Msg: fmt.Sprintf("unexpected character %q", r)} //jslint:ignore hotpath-noalloc error path terminates the scan
}
