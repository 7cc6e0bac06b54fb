package benchfmt

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// PairMetrics are the columns a paired A/B run compares and gates. Lower is
// better in each.
var PairMetrics = []string{"ns/op", "B/op", "allocs/op"}

// MemBound is the largest median head/base ratio of B/op or allocs/op the
// gate passes. Allocation counts are near-deterministic, so unlike ns/op
// this bound does not depend on the host and is not a knob.
const MemBound = 1.10

// PairStat summarizes one benchmark's metric over pairs of runs, each pair
// one run of a base build and one of a head build taken back to back. On a
// shared host the absolute numbers drift with its load between minutes, but
// the two runs of a pair see about the same load, so the per-pair ratio is
// what carries over.
type PairStat struct {
	Name   string
	Metric string
	// Pairs counts the pairs in which both sides ran the benchmark.
	Pairs int
	// Median is the median of the per-pair head/base ratios.
	Median float64
	// Better counts the pairs whose ratio is below 1.
	Better int
	// BaseIQR is the interquartile range of the base runs' values,
	// relative to their median: the spread a ratio has to clear before it
	// says more than the host's weather.
	BaseIQR float64
}

// Bound returns the largest median ratio s may show and still pass the
// gate: 1+tolerance on ns/op, MemBound on the memory columns.
func (s PairStat) Bound(tolerance float64) float64 {
	if s.Metric == "ns/op" {
		return 1 + tolerance
	}
	return MemBound
}

// Fails reports whether s's median head/base ratio exceeds its bound.
func (s PairStat) Fails(tolerance float64) bool {
	return s.Median > s.Bound(tolerance)
}

// metricValue returns r's reading of metric, one of PairMetrics.
func metricValue(r Result, metric string) float64 {
	switch metric {
	case "ns/op":
		return r.NsPerOp
	case "B/op":
		return r.BytesPerOp
	default:
		return r.AllocsPerOp
	}
}

// pairRatio is head/base for one pair: two zeros tie, and a rise from zero
// reads +Inf.
func pairRatio(base, head float64) float64 {
	switch {
	case base > 0:
		return head / base
	case head > 0:
		return math.Inf(1)
	default:
		return 1
	}
}

// quantile returns the q-quantile of sorted values, interpolating linearly
// between the two nearest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	// The early return keeps an +Inf ratio from turning 0*Inf into NaN.
	frac := pos - float64(i)
	if frac == 0 || sorted[i] == sorted[i+1] {
		return sorted[i]
	}
	return sorted[i] + frac*(sorted[i+1]-sorted[i])
}

// Pairs compares paired runs: base[i] and head[i] are the parsed outputs of
// pair i. It returns one PairStat per benchmark and metric that some run of
// the benchmark read above zero, over the pairs in which both sides ran it,
// sorted by benchmark name and then in PairMetrics order. Once a metric is
// above zero anywhere, its zeros count as readings: -benchmem prints 0 B/op
// for a run that allocated nothing, and a zero-allocation benchmark reads a
// few bytes per op in the odd run whose sync.Pool a GC emptied; counting
// the zeros keeps those odd runs from being the whole sample.
func Pairs(base, head [][]Result) []PairStat {
	type key struct{ name, metric string }
	read := make(map[key]bool)
	for _, side := range [][][]Result{base, head} {
		for _, run := range side {
			for _, r := range run {
				for _, m := range PairMetrics {
					if metricValue(r, m) > 0 {
						read[key{r.Name, m}] = true
					}
				}
			}
		}
	}
	ratios := make(map[key][]float64)
	bases := make(map[key][]float64)
	n := min(len(base), len(head))
	for i := 0; i < n; i++ {
		heads := make(map[string]Result, len(head[i]))
		for _, r := range head[i] {
			heads[r.Name] = r
		}
		for _, b := range base[i] {
			h, ok := heads[b.Name]
			if !ok {
				continue
			}
			for _, m := range PairMetrics {
				k := key{b.Name, m}
				if !read[k] {
					continue
				}
				bv := metricValue(b, m)
				ratios[k] = append(ratios[k], pairRatio(bv, metricValue(h, m)))
				bases[k] = append(bases[k], bv)
			}
		}
	}
	var out []PairStat
	for k, rs := range ratios {
		st := PairStat{Name: k.name, Metric: k.metric, Pairs: len(rs)}
		for _, r := range rs {
			if r < 1 {
				st.Better++
			}
		}
		sort.Float64s(rs)
		st.Median = quantile(rs, 0.5)
		bs := bases[k]
		sort.Float64s(bs)
		if med := quantile(bs, 0.5); med > 0 {
			st.BaseIQR = (quantile(bs, 0.75) - quantile(bs, 0.25)) / med
		}
		out = append(out, st)
	}
	order := make(map[string]int, len(PairMetrics))
	for i, m := range PairMetrics {
		order[m] = i
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return order[out[i].Metric] < order[out[j].Metric]
	})
	return out
}

// Unpaired lists, sorted, the benchmarks that ran on one side only, each
// followed by the side it ran on. They have no ratio to gate.
func Unpaired(base, head [][]Result) []string {
	sides := make(map[string]string)
	for side, runs := range map[string][][]Result{"base": base, "head": head} {
		for _, run := range runs {
			for _, r := range run {
				if s, ok := sides[r.Name]; ok && s != side {
					sides[r.Name] = "both"
				} else {
					sides[r.Name] = side
				}
			}
		}
	}
	var out []string
	for name, side := range sides {
		if side != "both" {
			out = append(out, name+" ("+side+" only)")
		}
	}
	sort.Strings(out)
	return out
}

// WritePairs renders the paired comparison as an aligned table: per
// benchmark and metric, the median head/base ratio, the bound it is gated
// at, how many pairs the head won, the base runs' relative IQR and the
// verdict.
func WritePairs(w io.Writer, stats []PairStat, tolerance float64) {
	width := len("benchmark")
	for _, s := range stats {
		width = max(width, len(s.Name))
	}
	fmt.Fprintf(w, "%-*s %-10s %12s %7s %8s %9s  %s\n", width, "benchmark", "metric", "median h/b", "bound", "better", "base IQR", "verdict")
	for _, s := range stats {
		verdict := "ok"
		if s.Fails(tolerance) {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "%-*s %-10s %12.3f %7.3f %8s %8.1f%%  %s\n", width, s.Name, s.Metric, s.Median,
			s.Bound(tolerance), fmt.Sprintf("%d/%d", s.Better, s.Pairs), 100*s.BaseIQR, verdict)
	}
}
