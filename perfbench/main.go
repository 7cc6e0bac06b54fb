// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload of the transformation detector from a seed, measures what a user
// of the batch engine (jsdetect) or of the scan daemon (jsscand) sees,
// checks every output, and prints the metrics declared in BENCHMARK.json.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload bundles|crawl|service --seed N --seconds S --trace 0|1
//
// With --trace 0 the run reports the end-to-end metrics, measured without
// any tracing. With --trace 1 it replays the workload with one worker
// through each layer's public functions, timing every call from outside,
// and reports the per-layer metrics. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}. A wrong
// output makes the run exit non-zero without that line. README.md defines
// every metric and workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// Worker counts: the reference host has two CPUs, so the scanner and the
// service run two workers and the load generator uses at most two
// connections.
const workers = 2

// env is one run's configuration and scratch space.
type env struct {
	seed   int64
	budget time.Duration // how long the run measures
	dir    string        // scratch directory, removed at exit
	models string        // directory holding level1.model and level2.model
}

// outcome is what a workload reports: its metric values and the tally of
// checked outputs. The tally methods are safe for concurrent use.
type outcome struct {
	mu                sync.Mutex
	attempted, failed int
	mismatches        int
	firstMismatches   []string
	metrics           map[string]float64
}

func newOutcome() *outcome { return &outcome{metrics: map[string]float64{}} }

// check counts one checked output; a false ok is a wrong output, and any
// wrong output fails the run.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted++
	if ok {
		return
	}
	o.failed++
	o.mismatches++
	if len(o.firstMismatches) < 8 {
		o.firstMismatches = append(o.firstMismatches, fmt.Sprintf(format, args...))
	}
}

// fail counts one operation that failed without producing an output to
// check: an errored input, a non-200 response, a timeout.
func (o *outcome) fail() {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted++
	o.failed++
}

type workloadFunc func(e *env, traced bool) (*outcome, error)

var workloads = map[string]workloadFunc{
	"bundles": runBundles,
	"crawl":   runCrawl,
	"service": runService,
}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "workload to run: bundles, crawl or service")
	seed := flag.Int64("seed", 1, "seed the workload's inputs and model fixtures derive from")
	seconds := flag.Int("seconds", 12, "how long the run measures")
	trace := flag.Int("trace", 0, "1 replays the workload through each layer and reports per-layer metrics")
	flag.Parse()

	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload bundles|crawl|service, --seconds >= 1 and --trace 0|1")
		return 2
	}
	decl, err := readDeclared("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := checkDeclared(decl); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	runtime.GOMAXPROCS(workers)

	dir, err := filepath.Abs(filepath.Join(".bench_build", "run", fmt.Sprintf("%s-%d", *workload, os.Getpid())))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	e := &env{seed: *seed, budget: time.Duration(*seconds) * time.Second, dir: dir, models: filepath.Join(dir, "models")}
	if err := os.MkdirAll(e.models, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := trainModels(*seed, e.models); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}

	out, err := fn(e, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if *trace == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: steal took %.1f%% of the timed intervals' wall\n", 100*runSteal.share())
	}
	if out.mismatches > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d wrong outputs, first:\n", *workload, out.mismatches)
		for _, m := range out.firstMismatches {
			fmt.Fprintf(os.Stderr, "  %s\n", m)
		}
		return 1
	}
	out.metrics["ok_ratio"] = 1 - ratio(float64(out.failed), float64(out.attempted))
	if extra := undeclared(out.metrics, append(decl.EndToEnd, decl.PerLayer...)); len(extra) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: metrics measured but not declared in BENCHMARK.json: %v\n", extra)
		return 1
	}
	if *trace == 1 {
		return report(out, decl.PerLayer)
	}
	return report(out, decl.EndToEnd)
}

// report prints every metric of want by name with its unit, then the
// result line carrying exactly those metrics.
func report(out *outcome, want []declaredMetric) int {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(want))
	for _, m := range want {
		v, ok := out.metrics[m.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s was not measured\n", m.Name)
			return 1
		}
		metrics[m.Name] = value{v, m.Unit}
		fmt.Printf("%-28s %14.4f %s\n", m.Name, v, m.Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.mismatches == 0, out.attempted, out.failed, metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func undeclared(got map[string]float64, want []declaredMetric) []string {
	known := make(map[string]bool, len(want))
	for _, m := range want {
		known[m.Name] = true
	}
	var extra []string
	for name := range got {
		if !known[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	return extra
}

// BENCHMARK.json -------------------------------------------------------------

type declaredMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type declaration struct {
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

func readDeclared(path string) (*declaration, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read metric declarations: %w", err)
	}
	var d declaration
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &d, nil
}

// checkDeclared verifies that BENCHMARK.json declares exactly the metrics
// this program measures, with the same units, so a metric can neither be
// printed undeclared nor declared and never printed.
func checkDeclared(d *declaration) error {
	for _, set := range []struct {
		kind string
		got  []declaredMetric
		want []metricDef
	}{{"end_to_end", d.EndToEnd, endToEndMetrics}, {"per_layer", d.PerLayer, perLayerMetrics}} {
		if len(set.got) != len(set.want) {
			return fmt.Errorf("BENCHMARK.json declares %d %s metrics, the benchmark measures %d", len(set.got), set.kind, len(set.want))
		}
		for i, m := range set.want {
			if g := set.got[i]; g.Name != m.name || g.Unit != m.unit {
				return fmt.Errorf("BENCHMARK.json %s[%d] is %s (%s), the benchmark measures %s (%s)", set.kind, i, g.Name, g.Unit, m.name, m.unit)
			}
		}
	}
	return nil
}
