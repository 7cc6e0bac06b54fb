// Package study reruns the paper's experiments end to end: detector
// accuracy (Section III-E, Figure 1), the large-scale wild analysis of
// Alexa-like, npm-like, and malicious collections (Section IV, Figures 2-5),
// and the longitudinal analysis (Section IV-D, Figures 6-8). Each experiment
// returns a typed result and can render itself as the table/series the
// paper reports.
package study

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/features"
	"repro/internal/ml"
	"repro/internal/transform"
)

// Config sizes a study run.
type Config struct {
	// Scale multiplies every corpus size; 1 is the quick laptop setting.
	Scale int
	// Seed drives all generation and training.
	Seed int64
	// NumTrees overrides the forest size; zero means 40.
	NumTrees int
	// NGramDims overrides the hashed n-gram space; zero means 1024.
	NGramDims int
	// BaseScripts overrides the number of base regular scripts; zero means
	// 150 per scale unit.
	BaseScripts int
}

func (c Config) scale() int {
	if c.Scale < 1 {
		return 1
	}
	return c.Scale
}

// Runner holds trained detectors plus the study configuration.
type Runner struct {
	Trained *core.Trained
	cfg     Config
	// scan classifies through the batch engine; scanLevel2 also ranks the
	// techniques of files level 1 calls regular.
	scan, scanLevel2 *core.Scanner
}

// detectorOptions derives the detector options from the study config.
func (c Config) detectorOptions() core.Options {
	return core.Options{
		Features: features.Options{NGramDims: c.NGramDims},
		Forest: ml.ForestOptions{
			NumTrees: c.NumTrees,
			Parallel: true,
			Tree:     ml.TreeOptions{MTry: 128},
		},
		Seed: c.Seed,
	}
}

// NewRunner trains both detectors at the configured scale.
func NewRunner(cfg Config) (*Runner, error) {
	bases := cfg.BaseScripts
	if bases <= 0 {
		bases = 150 * cfg.scale()
	}
	trained, err := core.Train(core.TrainConfig{
		NumRegular: bases,
		Options:    cfg.detectorOptions(),
	})
	if err != nil {
		return nil, err
	}
	r := &Runner{Trained: trained, cfg: cfg}
	if r.scan, err = core.NewScanner(trained.Level1, trained.Level2, core.ScanOptions{}); err != nil {
		return nil, err
	}
	if r.scanLevel2, err = core.NewScanner(trained.Level1, trained.Level2, core.ScanOptions{ForceLevel2: true}); err != nil {
		return nil, err
	}
	return r, nil
}

// rng derives a fresh stream for one experiment so experiments are
// independent of each other's ordering.
func (r *Runner) rng(offset int64) *rand.Rand {
	return rand.New(rand.NewSource(r.cfg.Seed*1315423911 + offset))
}

// ---------------------------------------------------------------------------
// Batch classification
// ---------------------------------------------------------------------------

// fileProbs carries both detector outputs for one file.
type fileProbs struct {
	file   *corpus.File
	level1 core.Level1Result
	level2 core.Level2Result
	err    error
}

// classifyAll runs level 1 (and level 2 for files level 1 reports as
// transformed) over all files through the batch engine.
func (r *Runner) classifyAll(files []corpus.File) []fileProbs {
	return classify(r.scan, files)
}

// classify scans files on sc and pairs each verdict with its file.
func classify(sc *core.Scanner, files []corpus.File) []fileProbs {
	results, _ := sc.ScanBatch(core.Inputs(files))
	out := make([]fileProbs, len(files))
	for i, res := range results {
		out[i] = fileProbs{file: &files[i], level1: res.Level1, err: res.Err}
		if res.Level2 != nil {
			out[i].level2 = *res.Level2
		}
	}
	return out
}

// techniqueAverages computes, over the files level 1 flagged as
// transformed, the average level 2 confidence per technique — the metric
// behind Figures 2, 3, 5, 7, and 8 ("the average probability of a given
// technique being used, based on our detector confidence score").
func techniqueAverages(results []fileProbs) map[transform.Technique]float64 {
	sums := make(map[transform.Technique]float64)
	n := 0
	for _, res := range results {
		if res.err != nil || !res.level1.IsTransformed() {
			continue
		}
		n++
		for _, p := range res.level2.Ranked {
			sums[p.Technique] += p.Probability
		}
	}
	if n == 0 {
		return sums
	}
	for t := range sums {
		sums[t] /= float64(n)
	}
	return sums
}

// printTechniqueTable renders a technique-probability table sorted by the
// canonical technique order.
func printTechniqueTable(w io.Writer, title string, avg map[transform.Technique]float64) {
	fmt.Fprintf(w, "%s\n", title)
	for _, t := range transform.Techniques {
		fmt.Fprintf(w, "  %-26s %6.2f%%\n", t, avg[t]*100)
	}
}
