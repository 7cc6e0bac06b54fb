package lexer

import "strings"

// TextStats bundles the whole-source byte statistics that several
// source-level rules and the hand-picked features share. A parse result
// computes it once, in a single pass, the first time either asks
// (parser.Result.TextStats), so adding source-level rules or features never
// adds source scans.
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
