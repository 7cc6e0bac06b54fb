package benchfmt

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestQuantileInterpolates(t *testing.T) {
	s := []float64{1, 2, 3, 4}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 1.75}, {0.5, 2.5}, {0.75, 3.25}, {1, 4}} {
		if got := quantile(s, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
}

func TestPairsMedianBetterAndIQR(t *testing.T) {
	res := func(ns, bytes, allocs float64) []Result {
		return []Result{{Name: "pkg.BenchmarkX", NsPerOp: ns, BytesPerOp: bytes, AllocsPerOp: allocs}}
	}
	base := [][]Result{res(100, 1000, 10), res(120, 1000, 10), res(110, 1000, 10), res(130, 0, 10)}
	head := [][]Result{res(80, 900, 8), res(96, 900, 8), res(121, 900, 8), res(104, 900, 8)}
	stats := Pairs(base, head)
	var metrics []string
	for _, s := range stats {
		metrics = append(metrics, s.Metric)
	}
	if got := strings.Join(metrics, ","); got != "ns/op,B/op,allocs/op" {
		t.Fatalf("metrics = %s", got)
	}
	ns := stats[0]
	// Ratios 0.8 0.8 1.1 0.8: median 0.8, three better.
	if ns.Pairs != 4 || ns.Better != 3 || math.Abs(ns.Median-0.8) > 1e-12 {
		t.Fatalf("ns/op stat = %+v", ns)
	}
	// Base 100 110 120 130: IQR 107.5..122.5 over median 115.
	if want := 15.0 / 115; math.Abs(ns.BaseIQR-want) > 1e-12 {
		t.Fatalf("base IQR = %v, want %v", ns.BaseIQR, want)
	}
	// The fourth base run reads 0 B/op, a rise to 900 that counts as +Inf.
	if b := stats[1]; b.Pairs != 4 || b.Better != 3 || math.Abs(b.Median-0.9) > 1e-12 {
		t.Fatalf("B/op stat = %+v", b)
	}
	var buf bytes.Buffer
	WritePairs(&buf, stats, 0.15)
	for _, want := range []string{"median h/b", "pkg.BenchmarkX", "0.800", "1.150", "1.100", "3/4", "13.0%", "ok"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("table lacks %q:\n%s", want, buf.String())
		}
	}
}

// TestPairStatFails pins the gate predicate: ns/op fails past 1+tolerance,
// B/op and allocs/op past MemBound whatever the tolerance, and a median on
// its bound passes.
func TestPairStatFails(t *testing.T) {
	cases := []struct {
		metric    string
		median    float64
		tolerance float64
		want      bool
	}{
		{"ns/op", 1.05, 0.10, false},
		{"ns/op", 1.10, 0.10, false},
		{"ns/op", 1.12, 0.10, true},
		{"ns/op", 1.12, 0.15, false},
		{"ns/op", 1.20, 0.15, true},
		{"ns/op", 0.50, 0.10, false},
		{"B/op", 1.10, 0.50, false},
		{"B/op", 1.11, 0.50, true},
		{"allocs/op", 1.11, 0.05, true},
		{"allocs/op", 1.09, 0.05, false},
	}
	for _, c := range cases {
		s := PairStat{Name: "X", Metric: c.metric, Median: c.median}
		if got := s.Fails(c.tolerance); got != c.want {
			t.Errorf("%s median %.2f tolerance %.2f: Fails = %v, want %v (bound %.3f)",
				c.metric, c.median, c.tolerance, got, c.want, s.Bound(c.tolerance))
		}
	}
	var buf bytes.Buffer
	WritePairs(&buf, []PairStat{{Name: "X", Metric: "B/op", Median: 1.2, Pairs: 2}}, 0.15)
	if !strings.Contains(buf.String(), "FAIL") {
		t.Errorf("failing row lacks its verdict:\n%s", buf.String())
	}
}

// TestCompareVerdicts runs the gate over paired runs: +10% passes a 15%
// bound, +20% fails it, a faster head wins every pair, and a benchmark
// that ran on one side only gets no row but is named with its side.
func TestCompareVerdicts(t *testing.T) {
	base := []Result{{Name: "A", NsPerOp: 1000}, {Name: "B", NsPerOp: 1000}, {Name: "C", NsPerOp: 1000}, {Name: "Gone", NsPerOp: 500}}
	head := []Result{{Name: "A", NsPerOp: 1100}, {Name: "B", NsPerOp: 1200}, {Name: "C", NsPerOp: 800}, {Name: "Fresh", NsPerOp: 50}}
	stats := Pairs([][]Result{base, base}, [][]Result{head, head})
	wantFail := map[string]bool{"A": false, "B": true, "C": false}
	if len(stats) != len(wantFail) {
		t.Fatalf("stats = %+v, want one ns/op row each for A, B and C", stats)
	}
	for _, s := range stats {
		if s.Metric != "ns/op" || s.Pairs != 2 {
			t.Errorf("%s: stat = %+v, want ns/op over 2 pairs", s.Name, s)
		}
		if got := s.Fails(0.15); got != wantFail[s.Name] {
			t.Errorf("%s: median %.2f Fails = %v, want %v", s.Name, s.Median, got, wantFail[s.Name])
		}
	}
	if c := stats[2]; c.Name != "C" || c.Better != 2 {
		t.Errorf("C: stat = %+v, want the head better in both pairs", c)
	}
	if got, want := strings.Join(Unpaired([][]Result{base}, [][]Result{head}), ","), "Fresh (head only),Gone (base only)"; got != want {
		t.Errorf("Unpaired = %q, want %q", got, want)
	}
}

// TestCompareGatesAllocations: with timing flat, a rise in allocs/op or B/op
// fails on that column alone, whatever the ns/op tolerance; a fall in both
// passes; and a benchmark run without -benchmem is gated on ns/op only.
func TestCompareGatesAllocations(t *testing.T) {
	base := []Result{
		{Name: "AllocUp", NsPerOp: 1000, AllocsPerOp: 100, BytesPerOp: 10000},
		{Name: "BytesUp", NsPerOp: 1000, AllocsPerOp: 100, BytesPerOp: 10000},
		{Name: "MemDown", NsPerOp: 1000, AllocsPerOp: 100, BytesPerOp: 10000},
		{Name: "NoMemData", NsPerOp: 1000},
	}
	head := []Result{
		{Name: "AllocUp", NsPerOp: 1000, AllocsPerOp: 150, BytesPerOp: 10000},
		{Name: "BytesUp", NsPerOp: 1000, AllocsPerOp: 100, BytesPerOp: 15000},
		{Name: "MemDown", NsPerOp: 1000, AllocsPerOp: 10, BytesPerOp: 1000},
		{Name: "NoMemData", NsPerOp: 1000},
	}
	stats := Pairs([][]Result{base, base, base}, [][]Result{head, head, head})
	wantFailing := map[string]string{"AllocUp": "allocs/op", "BytesUp": "B/op"}
	for _, tol := range []float64{0.15, 10} {
		failing := map[string][]string{}
		rows := map[string]int{}
		for _, s := range stats {
			rows[s.Name]++
			if s.Fails(tol) {
				failing[s.Name] = append(failing[s.Name], s.Metric)
			}
		}
		for _, name := range []string{"AllocUp", "BytesUp", "MemDown", "NoMemData"} {
			got := strings.Join(failing[name], ",")
			if got != wantFailing[name] {
				t.Errorf("tolerance %v: %s fails on %q, want %q", tol, name, got, wantFailing[name])
			}
		}
		if rows["NoMemData"] != 1 || rows["MemDown"] != 3 {
			t.Errorf("rows per benchmark = %v, want 1 for NoMemData and 3 for MemDown", rows)
		}
	}
}

// TestPairsCountsZeroReadings covers a zero-allocation benchmark: the odd
// run that reads a few B/op must not decide the median, a metric no run
// reads above zero gets no row, and a rise from zero in every pair fails.
func TestPairsCountsZeroReadings(t *testing.T) {
	run := func(bytes float64) []Result {
		return []Result{{Name: "X", NsPerOp: 100, BytesPerOp: bytes}}
	}
	base := [][]Result{run(0), run(0), run(7), run(0), run(0)}
	head := [][]Result{run(0), run(9), run(8), run(0), run(0)}
	stats := Pairs(base, head)
	if len(stats) != 2 || stats[1].Metric != "B/op" {
		t.Fatalf("stats = %+v, want ns/op and B/op rows only", stats)
	}
	if b := stats[1]; b.Pairs != 5 || b.Median != 1 || b.Fails(0.15) {
		t.Fatalf("sporadic B/op stat = %+v", b)
	}
	stats = Pairs(base, [][]Result{run(64), run(64), run(64), run(64), run(64)})
	if b := stats[1]; !math.IsInf(b.Median, 1) || !b.Fails(0.15) {
		t.Fatalf("B/op rising from zero = %+v, want +Inf and a failure", b)
	}
}

func TestPairsSkipsOneSidedBenchmarks(t *testing.T) {
	base := [][]Result{{{Name: "A", NsPerOp: 10}, {Name: "B", NsPerOp: 10}}}
	head := [][]Result{{{Name: "A", NsPerOp: 5}}}
	stats := Pairs(base, head)
	if len(stats) != 1 || stats[0].Name != "A" || stats[0].Median != 0.5 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestUnpairedNamesTheSide(t *testing.T) {
	base := [][]Result{{{Name: "A"}, {Name: "Gone"}}, {{Name: "A"}}}
	head := [][]Result{{{Name: "A"}}, {{Name: "A"}, {Name: "New"}}}
	got := strings.Join(Unpaired(base, head), ",")
	if want := "Gone (base only),New (head only)"; got != want {
		t.Fatalf("Unpaired = %q, want %q", got, want)
	}
}
