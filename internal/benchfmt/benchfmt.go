// Package benchfmt parses `go test -bench` output and judges paired runs.
// It is the library under cmd/benchreg and scripts/bench.sh: a run lands in
// a schema'd BENCH_<n>.json trajectory file as a record, and the perf gate
// compares alternating runs of a base build and a head build, pair by pair,
// so the host's drift between minutes cancels out of the verdict.
package benchfmt

import (
	"bufio"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Schema identifies the baseline file format.
const Schema = "benchreg/v1"

// Result is one benchmark's aggregated measurement.
type Result struct {
	// Name is the benchmark name with the -GOMAXPROCS suffix stripped,
	// qualified by its package when the parser saw a pkg: line
	// (e.g. "repro/internal/core.BenchmarkScanBatch").
	Name string `json:"name"`
	// Runs is how many lines were aggregated into this result.
	Runs int `json:"runs"`
	// N is the largest iteration count seen.
	N int64 `json:"n"`
	// NsPerOp is the minimum ns/op across runs — the least-noise estimate
	// on a loaded machine.
	NsPerOp float64 `json:"nsPerOp"`
	// BytesPerOp and AllocsPerOp are from -benchmem (minimum across runs;
	// allocation counts are stable, timing is not).
	BytesPerOp  float64 `json:"bytesPerOp,omitempty"`
	AllocsPerOp float64 `json:"allocsPerOp,omitempty"`
	// MBPerSec is the maximum throughput across runs when SetBytes was used.
	MBPerSec float64 `json:"mbPerSec,omitempty"`
	// Metrics holds custom b.ReportMetric units (files/sec, acc%, ...),
	// averaged across runs.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// File is a schema'd benchmark baseline.
type File struct {
	Schema string `json:"schema"`
	// CreatedUnix is the baseline's creation time (stamped by cmd/benchreg).
	CreatedUnix int64 `json:"createdUnix,omitempty"`
	// GoVersion/GOOS/GOARCH/CPU describe the machine the numbers came from;
	// cross-machine diffs are reported but should be read with suspicion.
	GoVersion string `json:"goVersion,omitempty"`
	GOOS      string `json:"goos,omitempty"`
	GOARCH    string `json:"goarch,omitempty"`
	CPU       string `json:"cpu,omitempty"`
	// Note is free-form provenance (flags, BENCH_SCALE, ...).
	Note    string   `json:"note,omitempty"`
	Results []Result `json:"results"`
}

// measurement is one parsed benchmark line before aggregation.
type measurement struct {
	name string
	n    int64
	vals map[string]float64 // unit -> value
}

// ParseOutput reads `go test -bench` output and aggregates repeated runs of
// the same benchmark (use -count=N for stability). It also picks up the
// "pkg:" and "cpu:" header lines go test emits; the CPU string of the last
// header wins.
func ParseOutput(r io.Reader) ([]Result, string, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var (
		cpu string
		pkg string
		ms  []measurement
	)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "cpu:"):
			cpu = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		}
		m, ok := parseLine(line)
		if !ok {
			continue
		}
		if pkg != "" {
			m.name = pkg + "." + m.name
		}
		ms = append(ms, m)
	}
	if err := sc.Err(); err != nil {
		return nil, cpu, err
	}
	return aggregate(ms), cpu, nil
}

// parseLine parses one benchmark result line:
//
//	BenchmarkName-8   	     100	  123456 ns/op	  77 B/op	   3 allocs/op	  12.5 files/sec
func parseLine(line string) (measurement, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return measurement{}, false
	}
	name := fields[0]
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	n, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return measurement{}, false
	}
	m := measurement{name: name, n: n, vals: make(map[string]float64)}
	// The rest come in value/unit pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return measurement{}, false
		}
		m.vals[fields[i+1]] = v
	}
	if len(m.vals) == 0 {
		return measurement{}, false
	}
	return m, true
}

// aggregate folds repeated runs: min for timing and allocation costs, max
// for throughput, mean for custom metrics. Output is sorted by name.
func aggregate(ms []measurement) []Result {
	byName := make(map[string]*Result)
	order := []string{}
	counts := make(map[string]map[string]int)
	for _, m := range ms {
		r := byName[m.name]
		if r == nil {
			r = &Result{Name: m.name, Metrics: map[string]float64{}}
			byName[m.name] = r
			counts[m.name] = map[string]int{}
			order = append(order, m.name)
		}
		r.Runs++
		if m.n > r.N {
			r.N = m.n
		}
		for unit, v := range m.vals {
			switch unit {
			case "ns/op":
				if r.Runs == 1 || v < r.NsPerOp {
					r.NsPerOp = v
				}
			case "B/op":
				if counts[m.name][unit] == 0 || v < r.BytesPerOp {
					r.BytesPerOp = v
				}
			case "allocs/op":
				if counts[m.name][unit] == 0 || v < r.AllocsPerOp {
					r.AllocsPerOp = v
				}
			case "MB/s":
				if v > r.MBPerSec {
					r.MBPerSec = v
				}
			default:
				// Running mean over the runs that reported this unit.
				c := counts[m.name][unit]
				r.Metrics[unit] = (r.Metrics[unit]*float64(c) + v) / float64(c+1)
			}
			counts[m.name][unit]++
		}
	}
	out := make([]Result, 0, len(byName))
	sort.Strings(order)
	for _, name := range order {
		r := byName[name]
		if len(r.Metrics) == 0 {
			r.Metrics = nil
		}
		out = append(out, *r)
	}
	return out
}
