package study

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/store"
)

// ---------------------------------------------------------------------------
// Cascade study — sharded crawl through triage + the verdict store
// ---------------------------------------------------------------------------

// CascadeShard summarizes one scanner pass over a slice of the crawl. The
// outcome columns are disjoint — a store or cache replay of a bypassed
// verdict counts as a hit, not a bypass — so Files is always their sum plus
// the full-pipeline scans.
type CascadeShard struct {
	Shard int
	Files int
	// Bypassed counts fresh stage-0 routing decisions; StoreHits verdicts
	// replayed from disk; Deduped verdicts replayed from the in-memory cache.
	Bypassed  int
	StoreHits int
	Deduped   int
	Duration  time.Duration
}

// FullScans is the number of files that paid the full
// parse→flow→features→infer cost in this pass.
func (s CascadeShard) FullScans() int {
	return s.Files - s.Bypassed - s.StoreHits - s.Deduped
}

// CascadeStudy is the sharded-crawl experiment: the Alexa-like and npm-like
// collections scanned through the stage-0 triage cascade by independent
// shard scanners sharing one on-disk verdict store, followed by a full
// re-crawl over the same content answered from the store.
type CascadeStudy struct {
	StoreDir string
	Shards   []CascadeShard
	// Recrawl is the second full pass: a fresh scanner (empty dedup cache)
	// over every script, after all shards have persisted their verdicts.
	Recrawl CascadeShard
	// Store is the verdict store's state after the re-crawl.
	Store store.Stats
}

// RunCascade runs the cascade experiment with the given shard count over the
// store directory dir, which the caller owns (pointing two runs at the same
// directory measures a warm re-deploy). Shards run sequentially — the point
// is the shared persistent state, not parallelism, which ScanBatch already
// provides internally.
func (r *Runner) RunCascade(dir string, shards int) (CascadeStudy, error) {
	st := CascadeStudy{StoreDir: dir}
	if shards < 1 {
		shards = 1
	}

	units := 40 * r.cfg.scale()
	alexa, err := corpus.BuildRanked(corpus.AlexaConfig(units), r.rng(601))
	if err != nil {
		return st, err
	}
	npm, err := corpus.BuildNpm(corpus.NpmConfig(units), r.rng(602))
	if err != nil {
		return st, err
	}
	files := append(alexa, npm...)
	inputs := core.Inputs(files)

	// One pass per shard, interleaved assignment so shard sizes stay even.
	// Each shard is its own scanner over the shared store — the crawl-scale
	// deployment shape, where worker processes share persisted verdicts but
	// not memory.
	scan := func(shard int, in []core.Input) (CascadeShard, error) {
		vs, err := store.Open(dir)
		if err != nil {
			return CascadeShard{}, err
		}
		defer vs.Close()
		scanner, err := core.NewScanner(r.Trained.Level1, r.Trained.Level2, core.ScanOptions{
			Triage:       true,
			VerdictStore: vs,
			Dedup:        true,
		})
		if err != nil {
			return CascadeShard{}, err
		}
		results, stats := scanner.ScanBatch(in)
		row := CascadeShard{Shard: shard, Files: stats.Files, Duration: stats.Duration}
		for i := range results {
			switch {
			case results[i].FromStore:
				row.StoreHits++
			case results[i].Deduped:
				row.Deduped++
			case results[i].Bypassed:
				row.Bypassed++
			}
		}
		return row, nil
	}

	for shard := 0; shard < shards; shard++ {
		var in []core.Input
		for i := shard; i < len(inputs); i += shards {
			in = append(in, inputs[i])
		}
		row, err := scan(shard, in)
		if err != nil {
			return st, err
		}
		st.Shards = append(st.Shards, row)
	}

	// The re-crawl: every script again, fresh scanner, warm store. Every
	// verdict should come off disk (or the in-batch dedup cache for repeated
	// contents) — zero full-pipeline scans.
	st.Recrawl, err = scan(-1, inputs)
	if err != nil {
		return st, err
	}

	vs, err := store.Open(dir)
	if err != nil {
		return st, err
	}
	st.Store = vs.Stats()
	if err := vs.Close(); err != nil {
		return st, err
	}
	return st, nil
}

// Print renders the cascade study.
func (c CascadeStudy) Print(w io.Writer) {
	fmt.Fprintf(w, "Cascade study (%d shards, store %s)\n", len(c.Shards), c.StoreDir)
	fmt.Fprintf(w, "  %-9s %7s %9s %11s %8s %10s %12s\n",
		"pass", "files", "bypassed", "store-hits", "deduped", "full-scans", "duration")
	row := func(name string, s CascadeShard) {
		fmt.Fprintf(w, "  %-9s %7d %9d %11d %8d %10d %12s\n",
			name, s.Files, s.Bypassed, s.StoreHits, s.Deduped, s.FullScans(),
			s.Duration.Round(time.Millisecond))
	}
	total := CascadeShard{}
	for _, s := range c.Shards {
		row(fmt.Sprintf("shard %d", s.Shard), s)
		total.Files += s.Files
		total.Bypassed += s.Bypassed
		total.StoreHits += s.StoreHits
		total.Deduped += s.Deduped
		total.Duration += s.Duration
	}
	row("crawl", total)
	row("re-crawl", c.Recrawl)
	if c.Recrawl.Files > 0 {
		avoided := c.Recrawl.Files - c.Recrawl.FullScans()
		fmt.Fprintf(w, "  re-crawl answered without the pipeline: %.2f%%\n",
			100*float64(avoided)/float64(c.Recrawl.Files))
	}
	fmt.Fprintf(w, "  store: %d entries, %d recovered, %d bytes dropped\n",
		c.Store.Entries, c.Store.Recovered, c.Store.DroppedBytes)
}
