package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/features"
	"repro/internal/js/parser"
	"repro/internal/ml"
	"repro/internal/transform"
)

// Model fixtures are trained in-process from the workload seed with
// cmd/trainer's forest settings (40 trees, MTry 128, 1024 n-gram dims) on a
// reduced base count, then written through the model file format and
// loaded back the way jsdetect and jsscand load them. Training is outside
// every timed section; loading is part of set-up.

const trainBases = 90

var featOpts = features.Options{NGramDims: 1024}

// trainModels trains both detectors and writes level1.model and
// level2.model into dir. It builds the training sets exactly as core.Train
// does — the same draws from the same random stream, so for most seeds the
// models are byte-identical to core.Train's (TestFixtureMatchesCoreTrain) —
// except that it drops transformed training files that do not parse.
// core.Train aborts on them instead: for about 4% of seeds the dead code
// injection transform emits a file the parser rejects ("expected binding
// target"), a defect of internal/transform that this fixture reports on
// standard error rather than turning into a failed run.
func trainModels(seed int64, dir string) error {
	opts := core.Options{
		Features: featOpts,
		Forest: ml.ForestOptions{
			NumTrees: 40,
			Parallel: true,
			Tree:     ml.TreeOptions{MTry: 128},
		},
		Seed: seed,
	}
	l1Files, l2Files, _, err := trainingSets(seed)
	if err != nil {
		return err
	}
	l1, err := core.TrainLevel1(l1Files, opts)
	if err != nil {
		return fmt.Errorf("train level 1: %w", err)
	}
	l2, err := core.TrainLevel2(l2Files, opts)
	if err != nil {
		return fmt.Errorf("train level 2: %w", err)
	}
	if err := l1.SaveFile(filepath.Join(dir, "level1.model")); err != nil {
		return fmt.Errorf("save level 1 model: %w", err)
	}
	if err := l2.SaveFile(filepath.Join(dir, "level2.model")); err != nil {
		return fmt.Errorf("save level 2 model: %w", err)
	}
	return nil
}

// trainingSets mirrors core.Train's construction of the level-1 and level-2
// training sets (Section III-D) for trainBases base scripts, skipping
// transformed files that do not parse; dropped counts them. The mirror is a
// stopgap for the transform defect: once every seed's transforms parse,
// core.Train builds the same sets and trainModels can call it directly.
func trainingSets(seed int64) (l1Files, l2Files []corpus.File, dropped int, err error) {
	rng := rand.New(rand.NewSource(seed + 1))
	regular := corpus.RegularSet(trainBases, rng)
	cut := int(float64(len(regular)) * 0.6)
	trainBases := regular[:cut]
	pool, err := corpus.TransformPool(trainBases, rng)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("build training pool: %w", err)
	}
	// The held-out pool is unused here, but building it advances the random
	// stream exactly as core.Train does.
	if _, err := corpus.TransformPool(regular[cut:], rng); err != nil {
		return nil, nil, 0, fmt.Errorf("build test pool: %w", err)
	}
	for t, files := range pool {
		kept := files[:0]
		for _, f := range files {
			if _, err := parser.ParseNoTokens(f.Source); err != nil {
				dropped++
				fmt.Fprintf(os.Stderr, "perfbench: training: dropping %s, which the %s transform left unparseable: %v\n", f.Name, t, err)
				continue
			}
			kept = append(kept, f)
		}
		pool[t] = kept
	}
	draw := func(t transform.Technique, n int) []corpus.File {
		files := pool[t]
		if n >= len(files) {
			return append([]corpus.File(nil), files...)
		}
		var out []corpus.File
		for _, i := range rng.Perm(len(files))[:n] {
			out = append(out, files[i])
		}
		return out
	}
	perClass := len(trainBases)
	l1Files = append(l1Files, trainBases...)
	l1Files = append(l1Files, draw(transform.MinifySimple, perClass/2)...)
	l1Files = append(l1Files, draw(transform.MinifyAdvanced, perClass-perClass/2)...)
	var obf []transform.Technique
	for _, t := range transform.Techniques {
		if !t.IsMinification() {
			obf = append(obf, t)
		}
	}
	for i, t := range obf {
		share := perClass / len(obf)
		if i < perClass%len(obf) {
			share++
		}
		l1Files = append(l1Files, draw(t, share)...)
	}
	for _, t := range transform.Techniques {
		l2Files = append(l2Files, draw(t, len(trainBases))...)
	}
	return l1Files, l2Files, dropped, nil
}

// loadModels loads both detectors from dir, validating their labels.
func loadModels(dir string) (l1, l2 *core.Detector, err error) {
	l1, err = core.LoadLevelFile(filepath.Join(dir, "level1.model"), featOpts, core.Level1Labels)
	if err != nil {
		return nil, nil, err
	}
	l2, err = core.LoadLevelFile(filepath.Join(dir, "level2.model"), featOpts, core.Level2Labels())
	if err != nil {
		return nil, nil, err
	}
	return l1, l2, nil
}

// setupRounds is how many times set-up is repeated per run; setup_s is the
// median, because one set-up takes about a millisecond and a single reading
// is at the mercy of the scheduler. Runs time set-up first, before they
// generate inputs, so set-up meets a process as small as a freshly started
// tool's.
const setupRounds = 41

// timeSetup runs start setupRounds times and returns the median set-up time
// in seconds of the process's CPU time (user + system). A round lasts about
// a millisecond, less than one 10 ms tick of the steal counter, so steal
// cannot be taken out of it the way rates take it out (see stopwatch), and
// wall time swung by half between runs as steal came and went. Set-up runs
// on one goroutine and does no blocking I/O (an empty store's Open writes
// its header without syncing), so its CPU time is its whole cost. start
// builds the workload's serving state and returns its teardown, which runs
// outside the timed interval, as does a GC before each round so no round
// pays for the previous one's garbage.
func timeSetup(start func() (teardown func(), err error)) (float64, error) {
	var secs []float64
	for i := 0; i < setupRounds; i++ {
		runtime.GC()
		cpu0 := cpuTime()
		teardown, err := start()
		d := cpuTime() - cpu0
		if err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		teardown()
		secs = append(secs, d.Seconds())
	}
	return median(secs), nil
}

// cpuTime returns the process's CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// freshDir returns an empty directory under base with the given name.
func freshDir(base, name string) (string, error) {
	dir := filepath.Join(base, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
