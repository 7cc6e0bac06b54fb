package scope

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/js/parser"
)

// slabCap is the number of values s's chunks can hold.
func slabCap[T any](s *slab[T]) int {
	n := 0
	for _, c := range s.chunks {
		n += cap(c)
	}
	return n
}

// TestSessionSlabsReuseEveryChunk analyzes one program of more than
// slabChunkMax scopes and bindings several times on one Session: once the
// first run has grown the slabs, later runs must refill the same chunks
// instead of appending new ones.
func TestSessionSlabsReuseEveryChunk(t *testing.T) {
	var b strings.Builder
	for i := range 1500 {
		fmt.Fprintf(&b, "function f%d(a) { let b = a; { let c = b; } }\n", i)
	}
	res, err := parser.ParseNoTokens(b.String())
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession()
	var scopes, bindings int
	for run := range 5 {
		info := s.Analyze(res.Program)
		if n := len(info.Bindings); n < 2*slabChunkMax {
			t.Fatalf("run %d: %d bindings, want a program past %d", run, n, 2*slabChunkMax)
		}
		sc, bc := slabCap(&s.a.scopes), slabCap(&s.a.bindingSlab)
		if run > 0 && (sc != scopes || bc != bindings) {
			t.Fatalf("run %d: slab capacity %d scopes / %d bindings, run 0 left %d / %d",
				run, sc, bc, scopes, bindings)
		}
		scopes, bindings = sc, bc
	}
	if scopes < 2*slabChunkMax {
		t.Fatalf("scope slab holds %d, want a program past %d scopes", scopes, 2*slabChunkMax)
	}
}
