package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/transform"
)

// Every workload's inputs are a pure function of the --seed flag: each
// generator draws from its own rand source derived from the seed, so the
// same seed gives byte-identical inputs and the program under test sees
// only the generated files.

// Salts separating the random streams derived from one seed.
const (
	saltBundles = 0x6275_6e64 // "bund"
	saltCrawl   = 0x6372_6177 // "craw"
	saltService = 0x7365_7276 // "serv"
)

func rngFor(seed int64, salt int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + salt))
}

// Bundles ---------------------------------------------------------------------

const (
	bundleCount = 48
	bundleMin   = 32 << 10
	bundleMax   = 1 << 20
)

// bundleSize is the pre-transform size of bundle i. Sizes are fixed (not
// seeded) and spread from bundleMin to bundleMax with a cubic skew toward
// small files (median ~50 KB, ~7 MB in all), so every seed has the same
// long-file tail and only the content varies.
func bundleSize(i int) int {
	x := float64(i) / float64(bundleCount-1)
	return int(float64(bundleMin) * math.Pow(float64(bundleMax)/float64(bundleMin), x*x*x))
}

// bundleMixSeed seeds the one draw from the Alexa technique mixture that
// gives every transformed bundle its technique set. The draw is fixed, like
// the sizes: which techniques land on the largest files sets most of a
// pass's cost, and a per-seed draw moved mb_per_s by ±20% between seeds.
const bundleMixSeed = 1

// bundleTechniques is the technique set of each bundle; every third bundle
// stays untransformed.
var bundleTechniques = func() [][]transform.Technique {
	rng := rand.New(rand.NewSource(bundleMixSeed))
	sets := make([][]transform.Technique, bundleCount)
	for i := range sets {
		if i%3 != 0 {
			sets[i] = corpus.AlexaMix.Draw(rng)
		}
	}
	return sets
}()

// bundleFiles builds the bundles workload: files assembled the way bundlers
// build them, by concatenating generated modules up to a target size; two
// thirds of them are then transformed with the paper's Alexa technique
// mixture (mostly minification), each with its fixed technique set.
func bundleFiles(seed int64) ([]corpus.File, error) {
	rng := rngFor(seed, saltBundles)
	files := make([]corpus.File, bundleCount)
	for i := range files {
		var b strings.Builder
		for b.Len() < bundleSize(i) {
			b.WriteString(corpus.GenerateRegular(rng))
			b.WriteString("\n")
		}
		f := corpus.File{Name: fmt.Sprintf("bundle_%02d.js", i), Source: b.String()}
		if techs := bundleTechniques[i]; techs != nil {
			tf, err := corpus.Apply(f, rng, techs...)
			if err != nil {
				return nil, err
			}
			f = tf
		}
		files[i] = f
	}
	return files, nil
}

// Crawl -----------------------------------------------------------------------

const (
	crawlAlexaSites  = 1500
	crawlNpmPackages = 450
	crawlLibraries   = 24
)

// crawlFiles builds the crawl workload: an Alexa-like ranked collection, an
// npm-like one and the three malware feeds at the paper's Table I rates, in
// crawl order (site by site). On top of those, a pool of shared library
// scripts repeats across sites with a Zipf-skewed popularity, the way
// CDN-hosted libraries recur across a real crawl.
func crawlFiles(seed int64) ([]corpus.File, error) {
	rng := rngFor(seed, saltCrawl)
	alexa, err := corpus.BuildRanked(corpus.AlexaConfig(crawlAlexaSites), rng)
	if err != nil {
		return nil, err
	}
	npm, err := corpus.BuildNpm(corpus.NpmConfig(crawlNpmPackages), rng)
	if err != nil {
		return nil, err
	}
	libs, err := libraryPool(rng)
	if err != nil {
		return nil, err
	}
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(len(libs)-1))
	var out []corpus.File
	prevRank := 0
	for _, f := range alexa {
		if f.Rank != prevRank {
			prevRank = f.Rank
			for k := rng.Intn(4); k > 0; k-- {
				lib := libs[zipf.Uint64()]
				lib.Name = fmt.Sprintf("alexa_r%05d_%s", f.Rank, lib.Name)
				out = append(out, lib)
			}
		}
		out = append(out, f)
	}
	out = append(out, npm...)
	for _, cfg := range corpus.DefaultMaliciousConfigs(1) {
		mal, err := corpus.BuildMalicious(cfg, rng)
		if err != nil {
			return nil, err
		}
		out = append(out, mal...)
	}
	return out, nil
}

// libraryPool generates the shared library scripts: larger than a typical
// site script (4–32 KB, a fixed size per popularity rank so that only the
// content varies with the seed), half of them shipped minified.
func libraryPool(rng *rand.Rand) ([]corpus.File, error) {
	libs := make([]corpus.File, crawlLibraries)
	for i := range libs {
		var b strings.Builder
		for size := 4<<10 + i*(28<<10)/(crawlLibraries-1); b.Len() < size; {
			b.WriteString(corpus.GenerateRegular(rng))
			b.WriteString("\n")
		}
		f := corpus.File{Name: fmt.Sprintf("lib%02d.js", i), Source: b.String(), Origin: "lib"}
		if i%2 == 1 {
			tf, err := corpus.Apply(f, rng, corpus.AlexaMix.Draw(rng)...)
			if err != nil {
				return nil, err
			}
			f = tf
		}
		libs[i] = f
	}
	return libs, nil
}

// Service ---------------------------------------------------------------------

const (
	serviceSites     = 1100 // ~5,000 distinct scripts, more than the LRU's 4,096 slots
	serviceRequests  = 8192 // request templates, cycled by the load generator
	serviceHotSet    = 256  // scripts that repeat across requests
	serviceRepeat    = 0.30 // share of file slots drawn from the hot set
	serviceBatchRate = 0.25 // share of requests sent as JSON batches
	serviceBatchMax  = 6    // files per JSON batch: 2..serviceBatchMax
)

// serviceRequest is one request template: the pool indices of its files,
// and whether it is sent as a JSON batch (otherwise a raw single-script
// body).
type serviceRequest struct {
	files []int
	batch bool
}

// serviceInputs builds the service workload: a pool of distinct scripts from
// the Alexa-like generator and a request stream over it. Each file slot of a
// request repeats a hot-set script with probability serviceRepeat and
// otherwise takes the next script of the pool in order, cycling, so the
// distinct working set exceeds the dedup LRU and entries get evicted.
func serviceInputs(seed int64) ([]corpus.File, []serviceRequest, error) {
	rng := rngFor(seed, saltService)
	pool, err := corpus.BuildRanked(corpus.AlexaConfig(serviceSites), rng)
	if err != nil {
		return nil, nil, err
	}
	pool = distinct(pool)
	next := 0
	pick := func() int {
		if rng.Float64() < serviceRepeat {
			return rng.Intn(serviceHotSet)
		}
		i := serviceHotSet + next
		next = (next + 1) % (len(pool) - serviceHotSet)
		return i
	}
	reqs := make([]serviceRequest, serviceRequests)
	for i := range reqs {
		n := 1
		if rng.Float64() < serviceBatchRate {
			reqs[i].batch = true
			n = 2 + rng.Intn(serviceBatchMax-1)
		}
		for k := 0; k < n; k++ {
			reqs[i].files = append(reqs[i].files, pick())
		}
	}
	return pool, reqs, nil
}

// distinct drops files whose bytes repeat an earlier file, keeping order.
func distinct(files []corpus.File) []corpus.File {
	seen := make(map[string]bool, len(files))
	out := files[:0]
	for _, f := range files {
		if !seen[f.Source] {
			seen[f.Source] = true
			out = append(out, f)
		}
	}
	return out
}

// toInputs converts corpus files into scan inputs.
func toInputs(files []corpus.File) []core.Input {
	out := make([]core.Input, len(files))
	for i, f := range files {
		out[i] = core.Input{Path: f.Name, Source: f.Source}
	}
	return out
}
