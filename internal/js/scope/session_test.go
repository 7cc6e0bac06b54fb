package scope_test

import (
	"math/rand"
	"testing"

	"repro/internal/corpus"
	"repro/internal/js/parser"
	"repro/internal/js/scope"
)

// Session-poisoning tests for the scope session itself (the flow package
// has its own suite for the layer above): recycled slabs and buffers must
// never leak one file's analysis into the next.

// TestScopeSessionReuseMatchesFresh re-analyzes each file with a session
// that just processed a different file and requires identical results to a
// fresh analysis.
func TestScopeSessionReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	files := corpus.RegularSet(4, rng)
	s := scope.NewSession()
	for _, f := range files {
		res, err := parser.ParseNoTokens(f.Source)
		if err != nil {
			t.Fatalf("%s: parse: %v", f.Name, err)
		}
		got := s.Analyze(res.Program)
		want := scope.Analyze(res.Program)
		if len(got.Bindings) != len(want.Bindings) {
			t.Fatalf("%s: %d bindings, fresh analysis %d", f.Name, len(got.Bindings), len(want.Bindings))
		}
		for i, wb := range want.Bindings {
			gb := got.Bindings[i]
			if gb.Name != wb.Name || gb.Decl != wb.Decl || gb.Kind != wb.Kind {
				t.Fatalf("%s: binding %d = %q/%p, fresh %q/%p", f.Name, i, gb.Name, gb.Decl, wb.Name, wb.Decl)
			}
			if len(gb.Refs) != len(wb.Refs) {
				t.Fatalf("%s: binding %q has %d refs, fresh %d", f.Name, wb.Name, len(gb.Refs), len(wb.Refs))
			}
			for j := range wb.Refs {
				if gb.Refs[j] != wb.Refs[j] {
					t.Fatalf("%s: binding %q ref %d differs", f.Name, wb.Name, j)
				}
			}
		}
		if len(got.Unresolved) != len(want.Unresolved) {
			t.Fatalf("%s: %d unresolved, fresh %d", f.Name, len(got.Unresolved), len(want.Unresolved))
		}
	}
}
