package ast

import (
	"slices"
	"strings"
)

// Lines maps the byte offsets of one source to lines and columns, the way
// go/token's File maps a Pos. It is the one place that computes them: nodes,
// tokens and comments carry only offsets, and a reported diagnostic or a
// parse error resolves its position here. It counts the JavaScript line
// terminators: LF, CR, CRLF (one terminator), U+2028 and U+2029; a column
// is the number of bytes since the line's start.
type Lines struct {
	// starts[i] is the offset at which line i+1 begins; starts[0] is 0.
	starts []int32
}

// NewLines builds the line table of src, which must be shorter than 2 GiB
// (the parser's limit).
func NewLines(src string) *Lines {
	// Most sources end lines with LF alone: find each one with IndexByte.
	// Both CR and the first byte of U+2028/U+2029 (0xE2) force the byte
	// loop; strings.ContainsAny with a non-ASCII set would decode runes.
	lfOnly := strings.IndexByte(src, '\r') < 0 && strings.IndexByte(src, 0xE2) < 0
	// Size the table once: exact for LF-only sources, an upper bound for
	// CR and CRLF ones (only U+2028/U+2029 lines can still grow it).
	n := strings.Count(src, "\n")
	if !lfOnly {
		n += strings.Count(src, "\r")
	}
	starts := make([]int32, 1, n+1)
	if lfOnly {
		for off := 0; ; {
			i := strings.IndexByte(src[off:], '\n')
			if i < 0 {
				return &Lines{starts: starts}
			}
			off += i + 1
			starts = append(starts, int32(off))
		}
	}
	for i := 0; i < len(src); i++ {
		switch src[i] {
		case '\n':
		case '\r':
			if i+1 < len(src) && src[i+1] == '\n' {
				i++
			}
		case 0xE2:
			// U+2028 and U+2029 are E2 80 A8 and E2 80 A9. A continuation
			// byte is never 0xE2, so a match always starts a rune.
			if i+2 >= len(src) || src[i+1] != 0x80 || src[i+2]&^1 != 0xA8 {
				continue
			}
			i += 2
		default:
			continue
		}
		starts = append(starts, int32(i+1))
	}
	return &Lines{starts: starts}
}

// Pos resolves a byte offset to its line and column.
func (l *Lines) Pos(off int32) Pos {
	i, found := slices.BinarySearch(l.starts, off)
	if !found {
		i--
	}
	return Pos{Offset: off, Line: int32(i + 1), Column: off - l.starts[i]}
}

// Span resolves both ends of a node's range.
func (l *Lines) Span(r Range) Span {
	return Span{Start: l.Pos(r.Start), End: l.Pos(r.End)}
}
