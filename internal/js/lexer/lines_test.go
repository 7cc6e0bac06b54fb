package lexer_test

import (
	"testing"

	"repro/internal/js/ast"
)

// TestLinesSpan resolves both ends of a range.
func TestLinesSpan(t *testing.T) {
	src := "a\r\nbc\u2028d"
	got := ast.NewLines(src).Span(ast.Range{Start: 4, End: int32(len(src))})
	want := ast.Span{
		Start: ast.Pos{Offset: 4, Line: 2, Column: 1},
		End:   ast.Pos{Offset: int32(len(src)), Line: 3, Column: 1},
	}
	if got != want {
		t.Fatalf("Span = %+v, want %+v", got, want)
	}
}
