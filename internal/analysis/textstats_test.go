package analysis

import (
	"math/rand"
	"strings"
	"testing"
)

// refTextStats is the per-byte branching loop ComputeTextStats replaced; the
// two must agree exactly, since the hand-picked features read these values.
func refTextStats(src string) TextStats {
	st := TextStats{Lines: 1, MaxLine: 0}
	if len(src) == 0 {
		st.Lines = 0
		return st
	}
	ws, alnum, jsfuck, cur := 0, 0, 0, 0
	for i := 0; i < len(src); i++ {
		c := src[i]
		if c == '\n' {
			st.Lines++
			if cur > st.MaxLine {
				st.MaxLine = cur
			}
			cur = 0
		} else {
			cur++
		}
		switch c {
		case ' ', '\t', '\n', '\r':
			ws++
		case '[', ']', '(', ')', '!', '+':
			jsfuck++
		default:
			if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' {
				alnum++
			}
		}
	}
	if cur > st.MaxLine {
		st.MaxLine = cur
	}
	n := float64(len(src))
	st.Whitespace = float64(ws) / n
	st.Alnum = float64(alnum) / n
	st.JSFuck = float64(jsfuck) / n
	return st
}

func TestComputeTextStatsMatchesByteLoop(t *testing.T) {
	var all strings.Builder
	for c := 0; c < 256; c++ {
		all.WriteByte(byte(c))
	}
	rng := rand.New(rand.NewSource(1))
	random := make([]byte, 5000)
	for i := range random {
		random[i] = byte(rng.Intn(256))
	}
	inputs := map[string]string{
		"empty":            "",
		"newline":          "\n",
		"trailing newline": "var a = 1;\n",
		"no newline":       "x=[]+!+[]",
		"crlf":             "a\r\nbb\r\n\r\nccc",
		"every byte":       all.String(),
		"random":           string(random),
		"lines":            strings.Repeat("a[ \n", 1000),
	}
	for name, src := range inputs {
		if got, want := ComputeTextStats(src), refTextStats(src); got != want {
			t.Errorf("%s: ComputeTextStats = %+v, want %+v", name, got, want)
		}
	}
}
