package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/store"
)

// crawl: the crawl cascade (jsdetect -triage -dedup -store) over a wild mix
// of small scripts, closed loop. Each cycle is a cold pass on an empty
// verdict store, which writes verdicts, then a restart (store closed and
// reopened, scanner rebuilt) and a warm re-crawl of the same input, which
// reads them.

func crawlOptions(workers int, st *store.Store) core.ScanOptions {
	return core.ScanOptions{Workers: workers, Triage: true, Dedup: true, VerdictStore: st}
}

// crawlCycle is one cold pass, restart and warm pass over a fresh store in
// dir. The restart is timed with the warm pass.
type crawlCycle struct {
	cold, warm             []core.FileResult
	coldStats, warmStats   core.ScanStats
	coldWall, reWall, open time.Duration // open: the store reopen alone
	coldSecs, reSecs       float64       // run seconds
	entries                int
	logBytes               int64
}

func runCrawlCycle(l1, l2 *core.Detector, workers int, dir string, inputs []core.Input, stageStats bool) (*crawlCycle, error) {
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	opts := crawlOptions(workers, st)
	opts.StageStats = stageStats
	sc, err := core.NewScanner(l1, l2, opts)
	if err != nil {
		st.Close()
		return nil, err
	}
	c := &crawlCycle{}
	t0, watch := time.Now(), startWatch()
	c.cold, c.coldStats = sc.ScanBatch(inputs)
	c.coldWall, c.coldSecs = time.Since(t0), watch.seconds()
	stats := st.Stats()
	c.entries, c.logBytes = stats.Entries, stats.LogBytes

	t0, watch = time.Now(), startWatch()
	if err := st.Close(); err != nil {
		return nil, fmt.Errorf("close store: %w", err)
	}
	t1 := time.Now()
	if st, err = store.Open(dir); err != nil {
		return nil, err
	}
	c.open = time.Since(t1)
	defer st.Close()
	opts.VerdictStore = st
	if sc, err = core.NewScanner(l1, l2, opts); err != nil {
		return nil, err
	}
	c.warm, c.warmStats = sc.ScanBatch(inputs)
	c.reWall, c.reSecs = time.Since(t0), watch.seconds()
	return c, nil
}

func runCrawl(e *env, traced bool) (*outcome, error) {
	o := newOutcome()
	if !traced {
		setup, err := timeSetup(func() (func(), error) {
			dir, err := freshDir(e.dir, "setup-store")
			if err != nil {
				return nil, err
			}
			l1, l2, err := loadModels(e.models)
			if err != nil {
				return nil, err
			}
			st, err := store.Open(dir)
			if err != nil {
				return nil, err
			}
			teardown := func() { st.Close(); os.RemoveAll(dir) }
			if _, err := core.NewScanner(l1, l2, crawlOptions(workers, st)); err != nil {
				teardown()
				return nil, err
			}
			return teardown, nil
		})
		if err != nil {
			return nil, err
		}
		o.metrics["setup_s"] = setup
	}
	files, err := crawlFiles(e.seed)
	if err != nil {
		return nil, err
	}
	inputs := toInputs(files)
	if traced {
		return traceCrawl(e, o, inputs)
	}

	l1, l2, err := loadModels(e.models)
	if err != nil {
		return nil, err
	}
	// Warm-up cycle (untimed); its cold pass is the reference verdict for
	// every file, and its warm pass must reproduce it bit for bit.
	warmup, err := runCrawlCycle(l1, l2, workers, e.dir+"/store-warmup", inputs, false)
	if err != nil {
		return nil, err
	}
	ref := warmup.cold
	checkBatch(o, "crawl warm pass vs cold pass", warmup.warm, ref)
	scoreAccuracy(o, files, ref)
	var bytes int64
	for _, in := range inputs {
		bytes += int64(len(in.Source))
	}

	heap := startHeapSampler()
	var mbps, fps, refps []float64
	deadline := time.Now().Add(e.budget / 2)
	for i := 0; i < 3 || time.Now().Before(deadline); i++ {
		c, err := runCrawlCycle(l1, l2, workers, fmt.Sprintf("%s/store-%d", e.dir, i), inputs, false)
		if err != nil {
			return nil, err
		}
		heap.lap()
		checkBatch(o, "crawl cold pass", c.cold, ref)
		checkBatch(o, "crawl warm pass", c.warm, ref)
		mbps = append(mbps, float64(bytes)/1e6/c.coldSecs)
		fps = append(fps, float64(len(inputs))/c.coldSecs)
		refps = append(refps, float64(len(inputs))/c.reSecs)
	}

	// Single-file requests from two callers, in crawl order, each sweep over
	// the crawl on a fresh store and scanner.
	sw, err := crawlRequests(e, l1, l2, inputs, ref, o, heap)
	if err != nil {
		return nil, err
	}
	o.metrics["peak_heap_mb"] = heap.stopMB()
	o.metrics["mb_per_s"] = median(mbps)
	o.metrics["files_per_s"] = median(fps)
	o.metrics["recrawl_files_per_s"] = median(refps)
	sw.report(o)
	return o, nil
}

// crawlRequests measures per-file request latency through the cascade: two
// callers submit one file per ScanBatch call, in crawl order. Every sweep
// over the crawl starts on an empty store and a new scanner, so each sweep
// is a cold crawl; sweeps repeat for half the run's budget.
func crawlRequests(e *env, l1, l2 *core.Detector, inputs []core.Input, ref []core.FileResult, o *outcome, heap *heapSampler) (*sweeps, error) {
	var sw sweeps
	for deadline := time.Now().Add(e.budget / 2); sw.calls == 0 || time.Now().Before(deadline); {
		dir, err := freshDir(e.dir, "requests")
		if err != nil {
			return nil, err
		}
		st, err := store.Open(dir)
		if err != nil {
			return nil, err
		}
		sc, err := core.NewScanner(l1, l2, crawlOptions(workers, st))
		if err != nil {
			st.Close()
			return nil, err
		}
		got := make([]core.FileResult, len(inputs))
		sw.add(sweep(workers, len(inputs), func(i int) {
			res, _ := sc.ScanBatch(inputs[i : i+1])
			got[i] = res[0]
		}))
		heap.lap()
		if err := st.Close(); err != nil {
			return nil, fmt.Errorf("close store: %w", err)
		}
		checkBatch(o, "crawl single-file requests", got, ref)
	}
	return &sw, nil
}

func traceCrawl(e *env, o *outcome, inputs []core.Input) (*outcome, error) {
	l1, l2, err := loadModels(e.models)
	if err != nil {
		return nil, err
	}
	cycle := func(name string, stageStats bool) (*crawlCycle, error) {
		return runCrawlCycle(l1, l2, 1, e.dir+"/"+name, inputs, stageStats)
	}
	warmup, err := cycle("store-warmup", false) // warm-up and reference
	if err != nil {
		return nil, err
	}
	ref, refWarm := warmup.cold, warmup.warm
	checkBatch(o, "crawl warm pass vs cold pass", refWarm, ref)
	countErrors(o, ref)

	// The untraced 1-worker cycle the replay is compared with.
	untracedRuns := 0
	untraced := func() (time.Duration, error) {
		untracedRuns++
		c, err := cycle(fmt.Sprintf("store-untraced-%d", untracedRuns), false)
		if err != nil {
			return 0, err
		}
		checkBatch(o, "crawl untraced cold pass", c.cold, ref)
		checkBatch(o, "crawl untraced warm pass", c.warm, refWarm)
		o.metrics["store.open_ms"] = ms(c.open)
		o.metrics["store.entries"] = float64(c.entries)
		o.metrics["store.log_mb"] = float64(c.logBytes) / 1e6
		return c.coldWall + c.reWall, nil
	}

	staged, err := cycle("store-staged", true)
	if err != nil {
		return nil, err
	}
	stages := mergeStages(staged.coldStats.Stages, staged.warmStats.Stages)
	var stageSum time.Duration
	for _, s := range stages {
		stageSum += s.Duration
	}
	o.metrics["core.unattributed_ms"] = ms(staged.coldStats.Duration + staged.warmStats.Duration - stageSum)

	var regErr error
	reg := counters(func() { _, regErr = cycle("store-counted", false) })
	if regErr != nil {
		return nil, regErr
	}
	layerCounts(o, reg)

	n := len(inputs)
	pass := 0
	lexEst := lexEstimates(inputs)
	best, wall, overhead, r, err := replayPasses(e, "crawl", 12*n, untraced, func(tr *tracer) (*replayer, []core.FileResult, error) {
		pass++
		// Store directories are left for the run's cleanup: removing them
		// here would land in the traced wall.
		dir, err := freshDir(e.dir, fmt.Sprintf("replay-%d", pass))
		if err != nil {
			return nil, nil, err
		}
		st, err := store.Open(dir)
		if err != nil {
			return nil, nil, err
		}
		r := newReplayer(l1, l2, crawlOptions(1, nil), st, lexEst, tr)
		out := make([]core.FileResult, 2*n)
		for i, in := range inputs {
			out[i] = r.scan(i, i, in)
		}
		// Restart: close and reopen the store; the dedup cache starts empty.
		t := time.Now()
		if err := st.Close(); err != nil {
			return nil, nil, fmt.Errorf("close store: %w", err)
		}
		if st, err = store.Open(dir); err != nil {
			return nil, nil, err
		}
		r.st = st
		r.lru = newLRU(0)
		tr.record(n, layerStore, t)
		for i, in := range inputs {
			out[n+i] = r.scan(n+i, i, in)
		}
		t = time.Now()
		if err := st.Close(); err != nil {
			return nil, nil, fmt.Errorf("close store: %w", err)
		}
		tr.record(2*n, layerStore, t)
		return r, out, nil
	}, func(res []core.FileResult) {
		checkBatch(o, "crawl replay cold pass", res[:n], ref)
		checkBatch(o, "crawl replay warm pass", res[n:], refWarm)
	})
	if err != nil {
		return nil, err
	}
	checkReplayCounts(o, r, reg)
	o.metrics["parser.nodes"] = float64(r.nodes)
	ledger(o, "crawl", best, wall, overhead, stages)
	unsetMetrics(o, "service.queue_wait_p99_ms", "service.overhead_p50_ms", "service.rejects", "gen.lag_p99_ms")
	return o, nil
}

// mergeStages sums two per-stage breakdowns by stage name, keeping
// pipeline order.
func mergeStages(a, b []core.StageStats) []core.StageStats {
	out := append([]core.StageStats(nil), a...)
next:
	for _, s := range b {
		for i := range out {
			if out[i].Stage == s.Stage {
				out[i].Duration += s.Duration
				out[i].Files += s.Files
				out[i].Bytes += s.Bytes
				continue next
			}
		}
		out = append(out, s)
	}
	return out
}
