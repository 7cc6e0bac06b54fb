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
	res := func(ns, cpu, bytes, allocs float64) []Result {
		r := Result{Name: "pkg.BenchmarkX", NsPerOp: ns, BytesPerOp: bytes, AllocsPerOp: allocs}
		if cpu > 0 {
			r.Metrics = map[string]float64{"cpu-ns/op": cpu}
		}
		return []Result{r}
	}
	base := [][]Result{res(100, 200, 1000, 10), res(120, 200, 1000, 10), res(110, 200, 1000, 10), res(130, 0, 1000, 10)}
	head := [][]Result{res(80, 150, 900, 8), res(96, 150, 900, 8), res(121, 150, 900, 8), res(104, 150, 900, 8)}
	stats := Pairs(base, head)
	var metrics []string
	for _, s := range stats {
		metrics = append(metrics, s.Metric)
	}
	if got := strings.Join(metrics, ","); got != "ns/op,cpu-ns/op,B/op,allocs/op" {
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
	// The fourth base run lacks cpu-ns/op, so that pair does not count.
	if cpu := stats[1]; cpu.Pairs != 3 || cpu.Better != 3 || math.Abs(cpu.Median-0.75) > 1e-12 {
		t.Fatalf("cpu-ns/op stat = %+v", cpu)
	}
	var buf bytes.Buffer
	WritePairs(&buf, stats)
	for _, want := range []string{"median h/b", "pkg.BenchmarkX", "0.800", "3/4", "13.0%"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("table lacks %q:\n%s", want, buf.String())
		}
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
