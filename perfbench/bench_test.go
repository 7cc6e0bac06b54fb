package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/js/lexer"
	"repro/internal/js/parser"
	"repro/internal/ml"
	"repro/internal/transform"
)

// digest hashes a generated input set: names, sources and labels.
func digest(t *testing.T, files []corpus.File, extra any) [sha256.Size]byte {
	t.Helper()
	data, err := json.Marshal(struct {
		Files []corpus.File
		Extra any
	}{files, extra})
	if err != nil {
		t.Fatal(err)
	}
	return sha256.Sum256(data)
}

func TestInputsDeterministic(t *testing.T) {
	gens := map[string]func(seed int64) ([sha256.Size]byte, error){
		"bundles": func(seed int64) ([sha256.Size]byte, error) {
			files, err := bundleFiles(seed)
			return digest(t, files, nil), err
		},
		"crawl": func(seed int64) ([sha256.Size]byte, error) {
			files, err := crawlFiles(seed)
			return digest(t, files, nil), err
		},
		"service": func(seed int64) ([sha256.Size]byte, error) {
			pool, reqs, err := serviceInputs(seed)
			type req struct {
				Files []int
				Batch bool
			}
			rs := make([]req, len(reqs))
			for i, r := range reqs {
				rs[i] = req{r.files, r.batch}
			}
			return digest(t, pool, rs), err
		},
	}
	if len(gens) != len(workloads) {
		t.Fatalf("%d input generators under test, %d workloads", len(gens), len(workloads))
	}
	for name, gen := range gens {
		a, errA := gen(7)
		b, errB := gen(7)
		c, errC := gen(8)
		if err := errors.Join(errA, errB, errC); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a != b {
			t.Errorf("%s: seed 7 gave different inputs on two calls", name)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs", name)
		}
	}
}

func TestServiceWorkingSetExceedsLRU(t *testing.T) {
	pool, reqs, err := serviceInputs(3)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, r := range reqs {
		for _, i := range r.files {
			seen[i] = true
		}
	}
	if len(seen) <= core.DefaultDedupCapacity {
		t.Errorf("the request stream touches %d distinct scripts (pool %d), want more than the LRU's %d",
			len(seen), len(pool), core.DefaultDedupCapacity)
	}
}

// declared reads BENCHMARK.json from the repository root.
func declared(t *testing.T) (*declaration, []string) {
	t.Helper()
	d, err := readDeclared("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var raw struct {
		Workloads []struct{ Name string }
	}
	data, _ := os.ReadFile("../BENCHMARK.json")
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range raw.Workloads {
		names = append(names, w.Name)
	}
	return d, names
}

func TestMetricsDeclared(t *testing.T) {
	d, names := declared(t)
	if err := checkDeclared(d); err != nil {
		t.Fatal(err)
	}
	var want []string
	for w := range workloads {
		want = append(want, w)
		if lim, ok := overheadRange[w]; !ok || lim[0] <= 0 || lim[0] >= lim[1] {
			t.Errorf("workload %s has no trace.overhead_ratio range", w)
		}
	}
	sort.Strings(want)
	sort.Strings(names)
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, the benchmark runs %v", names, want)
	}
	for _, m := range d.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

func TestPredictionsNameDeclaredMetrics(t *testing.T) {
	d, names := declared(t)
	known := map[string]bool{}
	for _, m := range append(d.EndToEnd, d.PerLayer...) {
		known[m.Name] = true
	}
	for _, n := range names {
		known[n] = true
	}
	data, err := os.ReadFile("predictions.json")
	if err != nil {
		t.Fatal(err)
	}
	var p struct {
		Predictions []struct {
			LayerMetrics []string `json:"layer_metrics"`
			Moves        []string `json:"moves"`
			On           []string `json:"on"`
			NoChangeOn   []string `json:"no_change_on"`
		}
	}
	if err := json.Unmarshal(data, &p); err != nil {
		t.Fatal(err)
	}
	covered := map[string]bool{}
	for _, pr := range p.Predictions {
		for _, list := range [][]string{pr.LayerMetrics, pr.Moves, pr.On, pr.NoChangeOn} {
			for _, n := range list {
				if !known[n] {
					t.Errorf("predictions.json names %q, which BENCHMARK.json does not declare", n)
				}
			}
		}
		for _, n := range pr.LayerMetrics {
			covered[n] = true
		}
	}
	for _, m := range d.PerLayer {
		if !covered[m.Name] {
			t.Errorf("per-layer metric %s has no prediction", m.Name)
		}
	}
}

func TestReplayCodecRoundTrip(t *testing.T) {
	l2 := core.Level2FromProbs([]float64{0.1, 0.9, 0.3, 0.05, 0.2, 0.7, 0.6, 0.15, 0.55, 0.01})
	for _, r := range []core.FileResult{
		{Level1: core.Level1Result{Regular: 0.125, Minified: 0.75, Obfuscated: 1.0 / 3}},
		{Level1: core.Level1Result{Minified: 1}, Bypassed: true},
		{Level1: core.Level1Result{Obfuscated: 0.875}, Level2: &l2},
		{Err: errors.New("parse: unexpected token")},
	} {
		got, err := decodeResult(encodeResult(&r))
		if err != nil {
			t.Fatal(err)
		}
		if !sameVerdict(&got, &r) {
			t.Errorf("round trip of %+v gave %+v", r, got)
		}
	}
}

// TestLexOnlyFollowsTemplates checks that the lex-only pass reads a file to
// its end, through template substitutions, by counting the tokens it scans
// against the parser's.
func TestLexOnlyFollowsTemplates(t *testing.T) {
	srcs := []string{
		"var a = `x${b}y${ {c: 1}.c }z`; function f() { return `${a}`; }",
		"const s = `outer ${`inner ${1 + 2}`} end`;\nif (s) { s.split('/'); }",
		"x = a / b / c; y = /re[/]x/g.test(x);",
	}
	for _, src := range srcs {
		res, err := parser.Parse(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if got := lexOnly(lexer.New(""), src); got != len(res.Tokens) {
			t.Errorf("%q: lex-only pass scanned %d tokens, the parser %d", src, got, len(res.Tokens))
		}
	}
}

func TestReportedTechniqueIndex(t *testing.T) {
	var acc accuracy
	f := corpus.File{Techniques: []transform.Technique{transform.MinifyAdvanced}}
	probs := make([]float64, len(transform.Techniques))
	probs[len(probs)-1] = 0.9 // MinifyAdvanced is last in chain order
	l2 := core.Level2FromProbs(probs)
	acc.add(&f, &core.FileResult{Level1: core.Level1Result{Minified: 0.9}, Level2: &l2})
	if acc.l1() != 1 || acc.f1() != 1 {
		t.Errorf("a correct verdict scored l1 %v, f1 %v", acc.l1(), acc.f1())
	}
}

// TestOpenLoopCountsAbandonedRequests drives the open loop against a
// server that never answers: every arrival is abandoned after the grace
// period, and each must count as a failed (timed-out) operation.
func TestOpenLoopCountsAbandonedRequests(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	defer srv.Close()
	defer close(release) // before Close, which waits for handlers
	pool := []corpus.File{{Name: "a.js", Source: "var a = 1;"}}
	load, err := newSvcLoad(pool, []serviceRequest{{files: []int{0}}}, []core.FileResult{{Path: "a.js"}})
	if err != nil {
		t.Fatal(err)
	}
	cl := newClient(workers)
	defer cl.CloseIdleConnections()
	o := newOutcome()
	lags := load.openLoop(o, cl, srv.URL, 200, 100*time.Millisecond, rand.New(rand.NewSource(1)))
	if len(lags) == 0 {
		t.Fatal("the open loop sent nothing")
	}
	if o.attempted != len(lags) || o.failed != len(lags) || o.mismatches != 0 {
		t.Errorf("%d arrivals abandoned: attempted %d, failed %d, mismatches %d; want %d, %d, 0",
			len(lags), o.attempted, o.failed, o.mismatches, len(lags), len(lags))
	}
}

// TestFixtureMatchesCoreTrain checks that the fixture's training sets are
// core.Train's: on a seed whose transforms all parse, both paths write
// byte-identical model files.
func TestFixtureMatchesCoreTrain(t *testing.T) {
	if testing.Short() {
		t.Skip("trains two pairs of models")
	}
	const seed = 1
	dir := t.TempDir()
	if err := trainModels(seed, dir); err != nil {
		t.Fatal(err)
	}
	trained, err := core.Train(core.TrainConfig{NumRegular: trainBases, Options: core.Options{
		Features: featOpts,
		Forest:   ml.ForestOptions{NumTrees: 40, Parallel: true, Tree: ml.TreeOptions{MTry: 128}},
		Seed:     seed,
	}})
	if err != nil {
		t.Fatal(err)
	}
	for name, det := range map[string]*core.Detector{"level1.model": trained.Level1, "level2.model": trained.Level2} {
		var want bytes.Buffer
		if err := det.Save(&want); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%s differs from core.Train's", name)
		}
	}
}

// TestFixtureDropsUnparseableTrainingFiles covers the fixture's stopgap on
// a seed where the dead code injection transform emits a file the parser
// rejects: core.Train fails there, and the fixture trains on every other
// file. When the transform is fixed, core.Train succeeds and the test says
// so.
func TestFixtureDropsUnparseableTrainingFiles(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a pair of models")
	}
	const seed = 6
	l1Files, l2Files, dropped, err := trainingSets(seed)
	if err != nil {
		t.Fatal(err)
	}
	_, trainErr := core.Train(core.TrainConfig{NumRegular: trainBases, Options: core.Options{
		Features: featOpts,
		Forest:   ml.ForestOptions{NumTrees: 40, Parallel: true, Tree: ml.TreeOptions{MTry: 128}},
		Seed:     seed,
	}})
	if trainErr == nil {
		t.Skipf("core.Train succeeds on seed %d: the transform defect is fixed, and trainModels can call core.Train directly", seed)
	}
	if dropped == 0 {
		t.Fatalf("core.Train fails on seed %d (%v), yet the fixture dropped no training file", seed, trainErr)
	}
	for _, f := range append(l1Files, l2Files...) {
		if _, err := parser.ParseNoTokens(f.Source); err != nil {
			t.Errorf("kept training file %s does not parse: %v", f.Name, err)
		}
	}
	if err := trainModels(seed, t.TempDir()); err != nil {
		t.Errorf("the fixture cannot train on seed %d: %v", seed, err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.99, 4.96}} {
		if got := quantile(xs, c.q); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its input in place")
	}
}
