package parser

import "testing"

// parseNoTokensAllocBound caps the allocations of one warm Session parse of
// benchSource. Before node lists were built on the session's scratch stack
// and failed arrow-head attempts stopped formatting an error, the same parse
// took 1,436 allocations; it now takes 209.
const parseNoTokensAllocBound = 250

func TestParseNoTokensAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	src := benchSource()
	s := NewSession()
	if _, err := s.ParseNoTokens(src); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := s.ParseNoTokens(src); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("ParseNoTokens: %.0f allocs", allocs)
	if allocs > parseNoTokensAllocBound {
		t.Fatalf("ParseNoTokens allocates %.0f times per parse, bound %d", allocs, parseNoTokensAllocBound)
	}
}
