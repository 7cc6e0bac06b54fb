package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
)

// bundles: jsdetect -explain over large bundler-style files, closed loop.
// The scanner runs with Explain on and no triage, dedup or store, so
// parse, flow, the indicator rules and features do almost all the work.

func bundleOptions(workers int) core.ScanOptions {
	return core.ScanOptions{Workers: workers, Explain: true}
}

func runBundles(e *env, traced bool) (*outcome, error) {
	o := newOutcome()
	if !traced {
		setup, err := timeSetup(func() (func(), error) {
			l1, l2, err := loadModels(e.models)
			if err != nil {
				return nil, err
			}
			_, err = core.NewScanner(l1, l2, bundleOptions(workers))
			return func() {}, err
		})
		if err != nil {
			return nil, err
		}
		o.metrics["setup_s"] = setup
	}
	files, err := bundleFiles(e.seed)
	if err != nil {
		return nil, err
	}
	inputs := toInputs(files)
	if traced {
		return traceBundles(e, o, inputs)
	}

	l1, l2, err := loadModels(e.models)
	if err != nil {
		return nil, err
	}
	sc, err := core.NewScanner(l1, l2, bundleOptions(workers))
	if err != nil {
		return nil, err
	}
	// Warm-up pass (untimed): its results are the reference every later
	// scan is checked against, and they must equal a 1-worker scan's.
	ref, _ := sc.ScanBatch(inputs)
	one, err := core.NewScanner(l1, l2, bundleOptions(1))
	if err != nil {
		return nil, err
	}
	serial, _ := one.ScanBatch(inputs)
	checkBatch(o, "bundles at 1 worker vs 2 workers", serial, ref)
	scoreAccuracy(o, files, ref)
	var bytes int64
	for _, in := range inputs {
		bytes += int64(len(in.Source))
	}

	heap := startHeapSampler()
	// Batch passes, alternating a pass on the running scanner with a
	// restart (scanner rebuilt) followed by a pass.
	var mbps, fps, refps []float64
	deadline := time.Now().Add(e.budget / 2)
	for i := 0; i < 4 || time.Now().Before(deadline); i++ {
		watch := startWatch()
		if i%2 == 1 {
			if sc, err = core.NewScanner(l1, l2, bundleOptions(workers)); err != nil {
				return nil, err
			}
		}
		res, _ := sc.ScanBatch(inputs)
		secs := watch.seconds()
		if i%2 == 1 {
			refps = append(refps, float64(len(inputs))/secs)
		} else {
			mbps = append(mbps, float64(bytes)/1e6/secs)
			fps = append(fps, float64(len(inputs))/secs)
		}
		heap.lap()
		checkBatch(o, fmt.Sprintf("bundles pass %d", i), res, ref)
	}
	// Single-file requests from two callers, in sweeps over the bundles.
	var sw sweeps
	for deadline := time.Now().Add(e.budget / 2); sw.calls == 0 || time.Now().Before(deadline); {
		got := make([]core.FileResult, len(inputs))
		sw.add(sweep(workers, len(inputs), func(i int) {
			res, _ := sc.ScanBatch(inputs[i : i+1])
			got[i] = res[0]
		}))
		heap.lap()
		checkBatch(o, "bundles single-file requests", got, ref)
	}
	o.metrics["peak_heap_mb"] = heap.stopMB()
	o.metrics["mb_per_s"] = median(mbps)
	o.metrics["files_per_s"] = median(fps)
	o.metrics["recrawl_files_per_s"] = median(refps)
	sw.report(o)
	return o, nil
}

// scoreAccuracy sets l1_accuracy and l2_f1 from one reference pass, over
// distinct scripts: a shared library that a crawl meets on hundreds of
// sites is scored once, or its few verdicts would outweigh every other
// script's and make the scores swing from seed to seed with the libraries'
// popularity draw. It also counts every errored input as a failure.
func scoreAccuracy(o *outcome, files []corpus.File, res []core.FileResult) {
	var acc accuracy
	seen := make(map[string]bool, len(files))
	for i := range files {
		if seen[files[i].Source] {
			continue
		}
		seen[files[i].Source] = true
		acc.add(&files[i], &res[i])
	}
	o.metrics["l1_accuracy"] = acc.l1()
	o.metrics["l2_f1"] = acc.f1()
	countErrors(o, res)
}

// countErrors counts every input that errored as a failed operation.
func countErrors(o *outcome, res []core.FileResult) {
	for i := range res {
		if res[i].Err != nil {
			o.fail()
		}
	}
}

func traceBundles(e *env, o *outcome, inputs []core.Input) (*outcome, error) {
	l1, l2, err := loadModels(e.models)
	if err != nil {
		return nil, err
	}
	one, err := core.NewScanner(l1, l2, bundleOptions(1))
	if err != nil {
		return nil, err
	}
	ref, _ := one.ScanBatch(inputs) // warm-up and reference
	countErrors(o, ref)

	staged, err := core.NewScanner(l1, l2, core.ScanOptions{Workers: 1, Explain: true, StageStats: true})
	if err != nil {
		return nil, err
	}
	_, stats := staged.ScanBatch(inputs)
	o.metrics["core.unattributed_ms"] = ms(stats.Duration - stats.StageTotal())

	reg := counters(func() { one.ScanBatch(inputs) })
	layerCounts(o, reg)

	lexEst := lexEstimates(inputs)
	// The untraced 1-worker scan the replay is compared with.
	untraced := func() (time.Duration, error) {
		res, stats := one.ScanBatch(inputs)
		checkBatch(o, "bundles untraced 1-worker scan", res, ref)
		return stats.Duration, nil
	}
	best, wall, overhead, r, err := replayPasses(e, "bundles", 8*len(inputs), untraced, func(tr *tracer) (*replayer, []core.FileResult, error) {
		r := newReplayer(l1, l2, bundleOptions(1), nil, lexEst, tr)
		out := make([]core.FileResult, len(inputs))
		for i, in := range inputs {
			out[i] = r.scan(i, i, in)
		}
		return r, out, nil
	}, func(res []core.FileResult) { checkBatch(o, "bundles replay", res, ref) })
	if err != nil {
		return nil, err
	}
	checkReplayCounts(o, r, reg)
	o.metrics["parser.nodes"] = float64(r.nodes)
	ledger(o, "bundles", best, wall, overhead, stats.Stages)
	unsetMetrics(o, "store.open_ms", "store.entries", "store.log_mb",
		"service.queue_wait_p99_ms", "service.overhead_p50_ms", "service.rejects", "gen.lag_p99_ms")
	return o, nil
}
