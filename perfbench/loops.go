package main

import (
	"os"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// sameVerdict reports whether two scan results carry the same verdict, bit
// for bit: path, size, level-1 probabilities, the level-2 ranking,
// diagnostics, the error text and the triage bypass flag. Deduped and
// FromStore describe where a verdict came from, not what it is, so they
// are not compared.
func sameVerdict(a, b *core.FileResult) bool {
	if a.Path != b.Path || a.Bytes != b.Bytes || a.Level1 != b.Level1 || a.Bypassed != b.Bypassed {
		return false
	}
	if (a.Err == nil) != (b.Err == nil) || (a.Err != nil && a.Err.Error() != b.Err.Error()) {
		return false
	}
	if (a.Level2 == nil) != (b.Level2 == nil) || (a.Level2 != nil && !reflect.DeepEqual(a.Level2.Ranked, b.Level2.Ranked)) {
		return false
	}
	return reflect.DeepEqual(a.Diagnostics, b.Diagnostics)
}

// checkBatch compares a scan's results with the reference, one checked
// output per file.
func checkBatch(o *outcome, what string, got, want []core.FileResult) {
	if len(got) != len(want) {
		o.check(false, "%s: %d results, want %d", what, len(got), len(want))
		return
	}
	for i := range got {
		o.check(sameVerdict(&got[i], &want[i]), "%s: %s differs from the reference verdict", what, want[i].Path)
	}
}

// Run time. Rates divide work by an interval's run time: its wall time
// minus the time the hypervisor kept the machine's CPUs from running
// anything (steal), averaged over the CPUs. On a shared virtual machine,
// steal comes and goes — from 0% to over 30% of a run on a 2-vCPU VM — and
// moves wall-clock rates with it; subtracting it keeps the rates the
// program's (crawl files_per_s held within 4% over runs with 8-34% steal).
// Everything else stays in: time a worker sits idle (a long file finishing
// alone at the end of a batch, a lock, a one-worker pool) lowers the rate
// as it would for a user.

// userHZ is the unit of /proc/stat's counters, in ticks per second; Linux
// reports them in USER_HZ, which is 100 on every architecture Go runs on.
const userHZ = 100

// stealTicks returns the steal counter of /proc/stat's aggregate cpu line
// and the number of CPUs it sums over. Where /proc/stat cannot be read, it
// returns 0 and 1, so run time falls back to wall time.
func stealTicks() (steal uint64, cpus int) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 1
	}
	lines := strings.Split(string(data), "\n")
	// cpu  user nice system idle iowait irq softirq steal ...
	fields := strings.Fields(lines[0])
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 1
	}
	steal, err = strconv.ParseUint(fields[8], 10, 64)
	if err != nil {
		return 0, 1
	}
	for _, l := range lines[1:] {
		if strings.HasPrefix(l, "cpu") {
			cpus++
		}
	}
	return steal, max(cpus, 1)
}

// stopwatch times one interval in run time.
type stopwatch struct {
	t0    time.Time
	steal uint64
}

func startWatch() stopwatch {
	steal, _ := stealTicks()
	return stopwatch{t0: time.Now(), steal: steal}
}

// seconds returns the run time since the watch started: wall seconds
// minus the steal per CPU over the same interval.
func (w stopwatch) seconds() float64 {
	run, _ := w.split()
	return run
}

// split returns the run time and the wall time since the watch started.
func (w stopwatch) split() (run, wall float64) {
	steal, cpus := stealTicks()
	wall = time.Since(w.t0).Seconds()
	stolen := float64(steal-w.steal) / userHZ / float64(cpus)
	runSteal.add(wall, stolen)
	return wall - stolen, wall
}

// inRunTime rescales latencies timed during an interval from wall time to
// run time by the interval's run/wall share: steal is spread over the
// interval's calls in proportion to their length. A single call is too
// short to read steal for (the counter ticks every 10 ms).
func inRunTime(lat []float64, run, wall float64) {
	if wall <= 0 {
		return
	}
	for i := range lat {
		lat[i] *= run / wall
	}
}

// runSteal totals the wall and steal seconds of every timed interval, for
// the steal share the run reports on standard error.
var runSteal stealTally

type stealTally struct {
	mu           sync.Mutex
	wall, stolen float64
}

func (t *stealTally) add(wall, stolen float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.wall += wall
	t.stolen += stolen
}

func (t *stealTally) share() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return ratio(t.stolen, t.wall)
}

// sweep issues call(i) once for every i in [0, n) from callers goroutines,
// each taking the next index as soon as its previous call returns (a closed
// loop). It returns every call's latency in ms of run time, indexed by i,
// and the sweep's run seconds.
func sweep(callers, n int, call func(i int)) (lat []float64, secs float64) {
	lat = make([]float64, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	watch := startWatch()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				t0 := time.Now()
				call(i)
				lat[i] = ms(time.Since(t0))
			}
		}()
	}
	wg.Wait()
	run, wall := watch.split()
	inRunTime(lat, run, wall)
	return lat, run
}

// sweeps accumulates single-request sweeps over a workload's inputs. A
// request's latency is its median over the run's sweeps: a stall of the
// shared host lands on some sweeps' calls but rarely on half the sweeps of
// the same request, and the median of several calls moves less from run
// to run than their minimum (on the largest bundle, eight calls spread
// over 110-180 ms). p50_ms and p99_ms are quantiles over requests of these
// medians.
type sweeps struct {
	lat   [][]float64 // per request, every sweep's latency in ms
	calls int
	secs  float64
}

func (s *sweeps) add(lat []float64, secs float64) {
	if s.lat == nil {
		s.lat = make([][]float64, len(lat))
	}
	for i, l := range lat {
		s.lat[i] = append(s.lat[i], l)
	}
	s.calls += len(lat)
	s.secs += secs
}

// report sets p50_ms, p99_ms and max_rps (requests per run second).
func (s *sweeps) report(o *outcome) {
	typical := make([]float64, len(s.lat))
	for i, l := range s.lat {
		typical[i] = median(l)
	}
	o.metrics["p50_ms"] = quantile(typical, 0.50)
	o.metrics["p99_ms"] = quantile(typical, 0.99)
	o.metrics["max_rps"] = float64(s.calls) / s.secs
}
