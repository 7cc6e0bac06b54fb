package flow

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/corpus"
	"repro/internal/js/parser"
	"repro/internal/obs"
)

// Session-poisoning tests: a reused session must behave exactly like a
// fresh one, whatever the previous Build processed. These mirror the parser
// session's poisoning suite — the flow session recycles even more state
// (scope slabs, ref stores), so the hard-reset contract is load-bearing.

func parseT(t *testing.T, src string) *parser.Result {
	t.Helper()
	res, err := parser.ParseNoTokens(src)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// graphsEquivalent compares two graphs built over the same program.
func graphsEquivalent(t *testing.T, label string, got, want *Graph) {
	t.Helper()
	if got.ControlEdges != want.ControlEdges {
		t.Fatalf("%s: %d control edges, want %d", label, got.ControlEdges, want.ControlEdges)
	}
	if got.DataEdges != want.DataEdges {
		t.Fatalf("%s: %d data edges, want %d", label, got.DataEdges, want.DataEdges)
	}
	if len(got.Scopes.Bindings) != len(want.Scopes.Bindings) {
		t.Fatalf("%s: %d bindings, want %d", label, len(got.Scopes.Bindings), len(want.Scopes.Bindings))
	}
}

// TestSessionReuseMatchesFresh builds a sequence of different files through
// one session; each result must match a fresh session's build of the same
// file, and a known snippet built between files must keep its exact counts.
func TestSessionReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	files := corpus.RegularSet(4, rng)
	probe := parseT(t, "var x = 1;\nvar y = x + x;\nconsole.log(y);")
	s := NewSession()
	for i, f := range files {
		res := parseT(t, f.Source)
		got := s.Build(res.Program)
		want := NewSession().Build(res.Program)
		graphsEquivalent(t, fmt.Sprintf("%s#%d", f.Name, i), got, want)
		if g := s.Build(probe.Program); g.ControlEdges != 3 || g.DataEdges != 3 || len(g.Scopes.Bindings) != 2 {
			t.Fatalf("probe after %s#%d: (%d control, %d data, %d bindings), want (3, 3, 2)",
				f.Name, i, g.ControlEdges, g.DataEdges, len(g.Scopes.Bindings))
		}
	}
}

// TestFlowMetricNamesInManifest keeps the flow stage's obs recordings in
// lockstep with the metrics manifest (the full-tree sync lives in
// internal/obs's manifest test).
func TestFlowMetricNamesInManifest(t *testing.T) {
	for _, name := range []string{
		"flow.build",
		"flow.graphs",
		"flow.walk.fused",
		"flow.control_edges",
		"flow.data_edges",
		"flow.scope.bindings",
	} {
		if !obs.KnownMetric(name) {
			t.Errorf("flow records %q but the manifest does not know it", name)
		}
	}
}

// TestFlowStatsRecordedUnderObs checks the counters each Build records while
// the obs registry is enabled: one graph per build, its edge and binding
// counts.
func TestFlowStatsRecordedUnderObs(t *testing.T) {
	reg := obs.NewRegistry()
	prev := obs.Swap(reg)
	t.Cleanup(func() { obs.Swap(prev) })

	// Control: Program→var→f→f(a), f→body→return. Data: a ×2, f ×1, x ×1.
	res := parseT(t, "var a = 1; function f(x) { return x + a; } f(a);")
	s := NewSession()
	s.Build(res.Program)
	s.Build(res.Program)
	for name, want := range map[string]int64{
		"flow.graphs":         2,
		"flow.walk.fused":     2,
		"flow.control_edges":  2 * 5,
		"flow.data_edges":     2 * 4,
		"flow.scope.bindings": 2 * 3,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}
