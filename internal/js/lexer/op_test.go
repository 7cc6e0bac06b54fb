package lexer

import (
	"fmt"
	"strings"
	"testing"
)

// refPunctsByFirst is the longest-match table scanPunct searched, entry by
// entry with strings.HasPrefix, before it became a byte switch; it is kept
// here as the reference the switch must agree with.
var refPunctsByFirst = map[byte][]string{
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

// refLongestPunct is the old matcher: the longest punctuator at the head of
// s, "" when there is none, with `?.` before a digit left to the ternary.
func refLongestPunct(s string) string {
	if s == "" {
		return ""
	}
	for _, p := range refPunctsByFirst[s[0]] {
		if strings.HasPrefix(s, p) {
			if p == "?." && len(s) > 2 && isDecimalDigit(s[2]) {
				continue
			}
			return p
		}
	}
	return ""
}

// opBySpelling inverts opNames.
func opBySpelling(t *testing.T) map[string]Op {
	t.Helper()
	m := make(map[string]Op, OpCount)
	for op := OpNone + 1; op < OpCount; op++ {
		if _, dup := m[op.String()]; dup {
			t.Fatalf("spelling %q names two codes", op.String())
		}
		m[op.String()] = op
	}
	return m
}

// TestScanPunctMatchesLongestMatch runs every string of up to four bytes
// over the punctuator alphabet plus '0', 'a' and a space through both
// matchers at every offset, and through the lexer: each Punct token must be
// the old matcher's longest match at its offset, with that spelling's code.
func TestScanPunctMatchesLongestMatch(t *testing.T) {
	var alphabet []byte
	for b := range refPunctsByFirst {
		alphabet = append(alphabet, b)
	}
	alphabet = append(alphabet, '0', 'a', ' ')
	ops := opBySpelling(t)
	var l Lexer
	var tok Token
	buf := make([]byte, 0, 4)
	var check func(n int)
	check = func(n int) {
		s := string(buf)
		for i := range s {
			op, size := matchPunct(s[i:])
			want := refLongestPunct(s[i:])
			if s[i:i+size] != want || op != ops[want] { // ops[""] is OpNone
				t.Fatalf("matchPunct(%q) = %v/%d, old matcher %q", s[i:], op, size, want)
			}
		}
		l.Reset(s)
		for {
			if err := l.NextInto(&tok); err != nil || tok.Kind == EOF {
				break
			}
			if tok.Kind != Punct {
				continue
			}
			want := refLongestPunct(s[tok.Start:])
			if tok.Lexeme != want || tok.Op != ops[want] {
				t.Fatalf("lexing %q: Punct %q (%v) at %d, old matcher %q", s, tok.Lexeme, tok.Op, tok.Start, want)
			}
		}
		if n == 0 {
			return
		}
		for _, b := range alphabet {
			buf = append(buf, b)
			check(n - 1)
			buf = buf[:len(buf)-1]
		}
	}
	check(4)
}

// TestOpStrings pins each code's spelling and checks that lexing it yields
// that code: punctuators as Punct tokens, keywords as Keyword tokens on
// both the fast identifier path and the escaped one.
func TestOpStrings(t *testing.T) {
	if OpNone.String() != "" {
		t.Fatalf("OpNone spells %q", OpNone.String())
	}
	ops := opBySpelling(t)
	for spelling, op := range ops {
		if refLongestPunct(spelling) == spelling {
			if op >= OpAwait {
				t.Errorf("punctuator %q has keyword code %v", spelling, op)
			}
			// After an identifier, so a leading '/' is division.
			toks := scanAll(t, "x "+spelling)
			if len(toks) != 2 || toks[1].Kind != Punct || toks[1].Op != op || toks[1].Lexeme != spelling {
				t.Errorf("lexing x %s = %+v, want x then one Punct with code %d", spelling, toks, op)
			}
			continue
		}
		if op < OpAwait || keywordOp(spelling) != op {
			t.Errorf("%q: code %d, keywordOp %d", spelling, op, keywordOp(spelling))
		}
		escaped := fmt.Sprintf(`\u%04x`, spelling[0]) + spelling[1:]
		for _, src := range []string{spelling, escaped} {
			toks := scanAll(t, src)
			if len(toks) != 1 || toks[0].Kind != Keyword || toks[0].Op != op ||
				toks[0].StringValue != spelling || toks[0].Lexeme != src {
				t.Errorf("lexing %q = %+v, want one Keyword with code %d", src, toks, op)
			}
		}
	}
	if n := len(ops); n != int(OpCount)-1 {
		t.Fatalf("%d spellings for %d codes", n, OpCount-1)
	}
	for _, name := range []string{"of", "async", "get", "set", "static", "from", "as", "If", "nul"} {
		if op := keywordOp(name); op != OpNone {
			t.Errorf("keywordOp(%q) = %v, want OpNone", name, op)
		}
	}
	for _, src := range []string{"x", "42", `"s"`, "`t`", "/re/g", "#p"} {
		if toks := scanAll(t, src); toks[0].Op != OpNone {
			t.Errorf("lexing %q: %v token carries code %v", src, toks[0].Kind, toks[0].Op)
		}
	}
}
