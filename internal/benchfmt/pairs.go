package benchfmt

import (
	"fmt"
	"io"
	"sort"
)

// PairMetrics are the columns a paired A/B run compares. Lower is better in
// each: ns/op and cpu-ns/op (the stage benchmarks' process CPU time per op)
// are costs, as are the -benchmem columns.
var PairMetrics = []string{"ns/op", "cpu-ns/op", "B/op", "allocs/op"}

// PairStat summarizes one benchmark's metric over pairs of runs, each pair
// one run of a base build and one of a head build taken back to back. On a
// shared host the absolute numbers drift with its load between minutes, but
// the two runs of a pair see about the same load, so the per-pair ratio is
// what carries over.
type PairStat struct {
	Name   string
	Metric string
	// Pairs counts the pairs in which both runs reported the metric.
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

// metricValue returns r's reading of metric and whether it has one.
func metricValue(r Result, metric string) (float64, bool) {
	var v float64
	switch metric {
	case "ns/op":
		v = r.NsPerOp
	case "B/op":
		v = r.BytesPerOp
	case "allocs/op":
		v = r.AllocsPerOp
	default:
		v = r.Metrics[metric]
	}
	return v, v > 0
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
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

// Pairs compares paired runs: base[i] and head[i] are the parsed outputs of
// pair i. It returns one PairStat per benchmark and metric that both sides
// reported in at least one pair, sorted by benchmark name and then in
// PairMetrics order.
func Pairs(base, head [][]Result) []PairStat {
	type key struct{ name, metric string }
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
				bv, okB := metricValue(b, m)
				hv, okH := metricValue(h, m)
				if !okB || !okH {
					continue
				}
				k := key{b.Name, m}
				ratios[k] = append(ratios[k], hv/bv)
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

// WritePairs renders the paired comparison as an aligned table: per
// benchmark and metric, the median head/base ratio, how many pairs the
// head won, and the base runs' relative IQR.
func WritePairs(w io.Writer, stats []PairStat) {
	width := len("benchmark")
	for _, s := range stats {
		width = max(width, len(s.Name))
	}
	fmt.Fprintf(w, "%-*s %-10s %12s %8s %9s\n", width, "benchmark", "metric", "median h/b", "better", "base IQR")
	for _, s := range stats {
		fmt.Fprintf(w, "%-*s %-10s %12.3f %8s %8.1f%%\n", width, s.Name, s.Metric, s.Median,
			fmt.Sprintf("%d/%d", s.Better, s.Pairs), 100*s.BaseIQR)
	}
}
