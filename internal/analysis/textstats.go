package analysis

import (
	"strings"

	"repro/internal/js/lexer"
)

// This file holds the source-text statistics shared between the minification
// rules here and the hand-picked feature block in internal/features (which
// calls these helpers so both layers agree on the definitions).

// TextStats bundles the whole-source byte statistics several source-level
// rules and the hand-picked features share. Context.Stats computes it once
// per file in a single pass so adding source-level rules never adds source
// scans.
type TextStats struct {
	// Lines is the number of lines (at least 1 for non-empty input).
	Lines int
	// MaxLine is the length in bytes of the longest line.
	MaxLine int
	// Whitespace is the fraction of bytes that are whitespace.
	Whitespace float64
	// Alnum is the fraction of alphanumeric bytes.
	Alnum float64
	// JSFuck is the fraction of JSFuck-alphabet bytes ([]()!+).
	JSFuck float64
}

// ComputeTextStats scans src once and returns its byte statistics.
func ComputeTextStats(src string) TextStats {
	st := TextStats{Lines: 1, MaxLine: 0}
	if len(src) == 0 {
		st.Lines = 0
		return st
	}
	for rest := src; ; {
		i := strings.IndexByte(rest, '\n')
		if i < 0 {
			st.MaxLine = max(st.MaxLine, len(rest))
			break
		}
		st.Lines++
		st.MaxLine = max(st.MaxLine, i)
		rest = rest[i+1:]
	}
	// A class table, not a branch per byte: the classes are unpredictable.
	var counts [numByteClasses]int
	for i := 0; i < len(src); i++ {
		counts[byteClass[src[i]]]++
	}
	n := float64(len(src))
	st.Whitespace = float64(counts[classSpace]) / n
	st.Alnum = float64(counts[classAlnum]) / n
	st.JSFuck = float64(counts[classJSFuck]) / n
	return st
}

// The byte classes ComputeTextStats counts.
const (
	classOther = iota
	classSpace
	classJSFuck
	classAlnum
	numByteClasses
)

var byteClass = func() (t [256]uint8) {
	for _, c := range " \t\n\r" {
		t[c] = classSpace
	}
	for _, c := range "[]()!+" {
		t[c] = classJSFuck
	}
	for _, c := range "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789" {
		t[c] = classAlnum
	}
	return t
}()

// CommentRatio returns the fraction of the file occupied by comment text,
// capped at 1.
func CommentRatio(comments []lexer.Comment, totalBytes int) float64 {
	if totalBytes <= 0 {
		return 0
	}
	total := 0
	for _, c := range comments {
		total += len(c.Text)
	}
	r := float64(total) / float64(totalBytes)
	if r > 1 {
		return 1
	}
	return r
}

// LooksEncoded reports percent-encoded, hex-escaped, or unicode-escaped
// payload strings.
func LooksEncoded(s string) bool {
	if len(s) < 6 {
		return false
	}
	enc := 0
	for i := 0; i+2 < len(s); i++ {
		if s[i] == '%' && isHexDigit(s[i+1]) && isHexDigit(s[i+2]) {
			enc++
		}
		if s[i] == '\\' && (s[i+1] == 'x' || s[i+1] == 'u') {
			enc++
		}
	}
	return enc*3 >= len(s)/2
}

// LooksBase64 reports strings that look like base64 payloads.
func LooksBase64(s string) bool {
	if len(s) < 12 || len(s)%4 != 0 {
		return false
	}
	letters, digits := 0, 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z':
			letters++
		case c >= '0' && c <= '9':
			digits++
		case c == '+' || c == '/':
		case c == '=' && i >= len(s)-2:
		default:
			return false
		}
	}
	// Require case mixing typical of base64 rather than a plain word.
	return letters > 0 && (digits > 0 || mixedCase(s))
}

func isHexDigit(b byte) bool {
	return b >= '0' && b <= '9' || b >= 'a' && b <= 'f' || b >= 'A' && b <= 'F'
}

func mixedCase(s string) bool {
	hasUpper, hasLower := false, false
	for i := 0; i < len(s); i++ {
		if s[i] >= 'A' && s[i] <= 'Z' {
			hasUpper = true
		}
		if s[i] >= 'a' && s[i] <= 'z' {
			hasLower = true
		}
	}
	return hasUpper && hasLower
}
