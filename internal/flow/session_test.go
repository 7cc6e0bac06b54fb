package flow

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/js/parser"
	"repro/internal/obs"
)

// Session-poisoning tests: a reused session must behave exactly like a
// fresh one, no matter what the previous Build did (completed or timed
// out). These mirror the parser session's poisoning suite — the flow session
// recycles even more state (scope slabs, ref stores, edge buffers), so the
// hard-reset contract is load-bearing.

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
	if got.Root != want.Root {
		t.Fatalf("%s: roots differ", label)
	}
	if got.DataFlowTimedOut != want.DataFlowTimedOut {
		t.Fatalf("%s: DataFlowTimedOut = %v, want %v", label, got.DataFlowTimedOut, want.DataFlowTimedOut)
	}
	if !edgesEqual(got.Control, want.Control) {
		t.Fatalf("%s: control edges differ: %d vs %d", label, len(got.Control), len(want.Control))
	}
	if !edgesEqual(got.Data, want.Data) {
		t.Fatalf("%s: data edges differ: %d vs %d", label, len(got.Data), len(want.Data))
	}
	if (got.Scopes == nil) != (want.Scopes == nil) {
		t.Fatalf("%s: Scopes nil-ness differs", label)
	}
	if got.Scopes != nil && len(got.Scopes.Bindings) != len(want.Scopes.Bindings) {
		t.Fatalf("%s: %d bindings, want %d", label, len(got.Scopes.Bindings), len(want.Scopes.Bindings))
	}
}

// TestSessionReuseMatchesFresh builds a sequence of different files through
// one session; each result must match a fresh session's build of the same
// file.
func TestSessionReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	files := corpus.RegularSet(4, rng)
	s := NewSession()
	for i, f := range files {
		res := parseT(t, f.Source)
		got := s.Build(res.Program, Options{})
		want := NewSession().Build(res.Program, Options{})
		graphsEquivalent(t, fmt.Sprintf("%s#%d", f.Name, i), got, want)
	}
}

// TestSessionReuseAfterTimeout checks a Build that hit the data-flow
// deadline leaves no residue: the next Build on the same session is
// complete and correct.
func TestSessionReuseAfterTimeout(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	files := corpus.RegularSet(2, rng)
	s := NewSession()
	resA := parseT(t, files[0].Source)
	g := s.Build(resA.Program, Options{DataFlowDeadline: time.Nanosecond})
	if !g.DataFlowTimedOut {
		t.Fatal("1ns deadline did not time out")
	}
	resB := parseT(t, files[1].Source)
	got := s.Build(resB.Program, Options{})
	want := NewSession().Build(resB.Program, Options{})
	graphsEquivalent(t, "after-timeout", got, want)
	if got.DataFlowTimedOut {
		t.Fatal("timeout flag leaked into the next build")
	}
}

// TestDeadlineBurstSkipRegression pins the deadline-sampling fix. The old
// check ran only when len(Data)%4096 == 0 after a binding's refs were
// appended in one burst; a file whose running edge count stepped over every
// multiple (here 3, 6, 9, ...) was never checked at all and an expired
// deadline went unenforced. The counter-based check must time this build
// out.
func TestDeadlineBurstSkipRegression(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 8; i++ {
		// Each binding gets exactly 3 references, so the running total is
		// 3k — never congruent to 0 mod 4096 for any prefix of this file.
		fmt.Fprintf(&b, "var v%d = 1; use(v%d); use(v%d); use(v%d);\n", i, i, i, i)
	}
	res := parseT(t, b.String())
	g := NewSession().Build(res.Program, Options{DataFlowDeadline: time.Nanosecond})
	if !g.DataFlowTimedOut {
		t.Fatal("expired deadline not enforced on burst-stepping ref counts")
	}
	if len(g.Data) != 0 {
		t.Fatalf("timed-out graph carries %d data edges", len(g.Data))
	}
	if g.Scopes == nil {
		t.Fatal("timeout dropped the scope info along with the data edges")
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
		"flow.dataflow_timeouts",
	} {
		if !obs.KnownMetric(name) {
			t.Errorf("flow records %q but the manifest does not know it", name)
		}
	}
}

// TestFlowStatsRecordedUnderObs checks the counters each Build records while
// the obs registry is enabled: one graph per build, its edge and binding
// counts, and a timeout when the data-flow deadline expires.
func TestFlowStatsRecordedUnderObs(t *testing.T) {
	reg := obs.NewRegistry()
	prev := obs.Swap(reg)
	t.Cleanup(func() { obs.Swap(prev) })

	res := parseT(t, "var a = 1; function f(x) { return x + a; } f(a);")
	g := NewSession().Build(res.Program, Options{})
	for name, want := range map[string]int64{
		"flow.graphs":            1,
		"flow.walk.fused":        1,
		"flow.control_edges":     int64(len(g.Control)),
		"flow.data_edges":        int64(len(g.Data)),
		"flow.scope.bindings":    int64(len(g.Scopes.Bindings)),
		"flow.dataflow_timeouts": 0,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if len(g.Data) == 0 {
		t.Fatal("probe program built no data edges")
	}

	NewSession().Build(res.Program, Options{DataFlowDeadline: time.Nanosecond})
	if got := reg.Counter("flow.dataflow_timeouts").Value(); got != 1 {
		t.Errorf("flow.dataflow_timeouts = %d after an expired deadline, want 1", got)
	}
	if got := reg.Counter("flow.graphs").Value(); got != 2 {
		t.Errorf("flow.graphs = %d after two builds, want 2", got)
	}
}
