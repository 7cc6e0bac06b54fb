package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/ml"
)

// The soak test is the acceptance gate for the service: sustained concurrent
// /v1/scan traffic must return verdicts bit-identical to a direct ScanBatch
// over the same detectors. Canned constant-probability models would make
// that comparison vacuous (every file scores the same), so splitDetector
// builds forests of depth-1 trees over the hashed n-gram frequencies:
// inference stays trivial, but each file's probabilities depend on its
// content, and any cross-request result mixing shows up as a value mismatch,
// not just a path mismatch.

// discriminatingBuckets extracts the corpus's feature vectors and returns
// the n-gram buckets whose occupancy is mixed — present in some files,
// absent in others — so a split on them actually separates the corpus.
func discriminatingBuckets(t *testing.T, inputs []core.Input, featOpts features.Options) []int32 {
	t.Helper()
	vecs, err := core.ExtractBatch(features.NewExtractor(featOpts), inputs)
	if err != nil {
		t.Fatalf("extract %v", err)
	}
	occupied := make([]int, featOpts.Dims())
	for _, vec := range vecs {
		for b := 0; b < featOpts.Dims(); b++ {
			if vec[b] > 0 {
				occupied[b]++
			}
		}
	}
	var buckets []int32
	lo, hi := len(inputs)/4, 3*len(inputs)/4
	for b, n := range occupied {
		if n >= lo && n <= hi {
			buckets = append(buckets, int32(b))
		}
	}
	if len(buckets) < 8 {
		t.Fatalf("only %d mixed-occupancy buckets; corpus not diverse enough for split detectors", len(buckets))
	}
	return buckets
}

// splitDetector builds a detector whose per-label probability is the forest
// average over four single-split trees, each keyed to one of the supplied
// mixed-occupancy n-gram buckets. Written and reloaded through the v2 model
// format like every real model.
func splitDetector(t *testing.T, labels []string, salt int, buckets []int32, featOpts features.Options) *core.Detector {
	t.Helper()
	forests := make([]*ml.Forest, len(labels))
	for i := range labels {
		trees := make([]*ml.Tree, 4)
		for j := range trees {
			trees[j] = &ml.Tree{Nodes: []ml.TreeNode{
				// Threshold 0 splits on bucket occupancy: whether the file
				// contains any node-type 4-gram hashing to this bucket.
				{Feature: buckets[(salt+i*17+j*5)%len(buckets)], Threshold: 0, Left: 1, Right: 2},
				{Feature: 0, Left: -1, Right: -1, Prob: 0.08 + 0.05*float64(i) + 0.01*float64(j)},
				{Feature: 0, Left: -1, Right: -1, Prob: 0.93 - 0.04*float64(i) - 0.01*float64(j)},
			}}
		}
		forests[i] = &ml.Forest{Trees: trees}
	}
	chain := &ml.Chain{Names: append([]string(nil), labels...), Forests: forests}
	var buf bytes.Buffer
	fp := ml.Fingerprint{
		NGramDims:    uint32(featOpts.Dims()),
		NGramLen:     features.NGramLen,
		RuleFeatures: featOpts.RuleFeatures,
	}
	if err := ml.WriteModel(&buf, chain, fp); err != nil {
		t.Fatalf("write split model: %v", err)
	}
	d, err := core.Load(&buf, featOpts)
	if err != nil {
		t.Fatalf("load split model: %v", err)
	}
	return d
}

// soakCorpus generates n distinct scripts. The n-gram features hash *node
// type* sequences, so the files must differ structurally — each index mixes
// in a different subset of syntactic constructs — or every file would land
// in the same buckets and the split trees could not disagree.
func soakCorpus(n int) []core.Input {
	inputs := make([]core.Input, n)
	for i := range inputs {
		var b strings.Builder
		fmt.Fprintf(&b, "var alpha%d = %d;\n", i, i*7)
		fmt.Fprintf(&b, "function work%d(x) { return x * %d + alpha%d; }\n", i, i+3, i)
		if i%2 == 0 {
			fmt.Fprintf(&b, "if (alpha%d > 3) { alpha%d -= 1; } else { alpha%d += 1; }\n", i, i, i)
		}
		if i%3 == 0 {
			fmt.Fprintf(&b, "for (var j%d = 0; j%d < %d; j%d++) { alpha%d += j%d; }\n", i, i, i+2, i, i, i)
		}
		if i%4 == 0 {
			fmt.Fprintf(&b, "var arr%d = [1, 2, %d]; var obj%d = { a: 1, b: \"%s\" };\n",
				i, i, i, strings.Repeat("xyz", 1+i%13))
		}
		if i%5 == 0 {
			fmt.Fprintf(&b, "try { work%d(null.x); } catch (e%d) { alpha%d = 0; }\n", i, i, i)
		}
		if i%6 == 0 {
			fmt.Fprintf(&b, "switch (alpha%d) { case 1: break; default: alpha%d = 2; }\n", i, i)
		}
		if i%7 == 0 {
			fmt.Fprintf(&b, "var tern%d = alpha%d > 1 ? \"hi\" : \"lo\";\nwhile (alpha%d > 0) { alpha%d -= 3; }\n", i, i, i, i)
		}
		fmt.Fprintf(&b, "console.log(work%d(%d));\n", i, i)
		inputs[i] = core.Input{Path: fmt.Sprintf("soak_%03d.js", i), Source: b.String()}
	}
	return inputs
}

// expected is the transport-independent part of a verdict.
type expected struct {
	transformed                   bool
	regular, minified, obfuscated float64
	probs                         map[string]float64
}

// matchReport compares a decoded HTTP Report against the direct-scan verdict
// with exact float equality: encoding/json renders float64 at shortest
// round-trippable precision, so any inequality here is a real divergence,
// not formatting noise.
func matchReport(got Report, want expected) error {
	if got.Error != "" {
		return fmt.Errorf("unexpected per-file error %q", got.Error)
	}
	if got.Transformed != want.transformed ||
		got.Regular != want.regular || got.Minified != want.minified || got.Obfuscated != want.obfuscated {
		return fmt.Errorf("level 1 diverged: got %v/%v/%v/%v want %v/%v/%v/%v",
			got.Transformed, got.Regular, got.Minified, got.Obfuscated,
			want.transformed, want.regular, want.minified, want.obfuscated)
	}
	if len(got.Probabilities) != len(want.probs) {
		return fmt.Errorf("%d technique probabilities, want %d", len(got.Probabilities), len(want.probs))
	}
	for name, p := range want.probs {
		if got.Probabilities[name] != p {
			return fmt.Errorf("P(%s) = %v, want %v", name, got.Probabilities[name], p)
		}
	}
	return nil
}

// TestSoakConcurrentTrafficMatchesScanBatch hammers the service with mixed
// single-body and batch submissions from concurrent clients (run it under
// -race) and checks every verdict bit-for-bit against a direct ScanBatch
// reference over the same detectors — with the shared dedup cache on, so
// cache replays are held to the same standard as fresh scans.
func TestSoakConcurrentTrafficMatchesScanBatch(t *testing.T) {
	swapObs(t)
	featOpts := features.Options{NGramDims: 256}
	corpus := soakCorpus(48)
	buckets := discriminatingBuckets(t, corpus, featOpts)
	l1 := splitDetector(t, core.Level1Labels, 1, buckets, featOpts)
	l2 := splitDetector(t, core.Level2Labels(), 5, buckets, featOpts)

	// Reference: one direct batch scan, no service, no dedup.
	ref, err := core.NewScanner(l1, l2, core.ScanOptions{Workers: 1, ForceLevel2: true})
	if err != nil {
		t.Fatal(err)
	}
	refResults, _, err := ref.ScanBatchContext(context.Background(), corpus)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]expected, len(refResults))
	distinct := make(map[float64]bool)
	for i := range refResults {
		r := &refResults[i]
		if r.Err != nil {
			t.Fatalf("reference scan of %s failed: %v", r.Path, r.Err)
		}
		e := expected{
			transformed: r.Level1.IsTransformed(),
			regular:     r.Level1.Regular,
			minified:    r.Level1.Minified,
			obfuscated:  r.Level1.Obfuscated,
			probs:       make(map[string]float64),
		}
		for _, p := range r.Level2.Ranked {
			e.probs[p.Technique.String()] = p.Probability
		}
		want[r.Path] = e
		distinct[r.Level1.Regular] = true
	}
	// Sanity: the corpus must actually exercise content-dependence, or the
	// bit-identical comparison proves nothing.
	if len(distinct) < 4 {
		t.Fatalf("split detectors produced only %d distinct regular-probabilities across the corpus", len(distinct))
	}

	serving, err := core.NewScanner(l1, l2, core.ScanOptions{Workers: 2, ForceLevel2: true, Dedup: true})
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	s, ts := newTestServer(t, serving, Config{Concurrency: 2, RequestTimeout: time.Minute})

	const (
		clients   = 6
		perClient = 20
	)
	var filesSent atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1 + g)))
			for r := 0; r < perClient; r++ {
				if rng.Intn(3) == 0 {
					// Single raw-body submission.
					in := corpus[rng.Intn(len(corpus))]
					resp, err := http.Post(ts.URL+"/v1/scan?path="+in.Path, "application/javascript", strings.NewReader(in.Source))
					if err != nil {
						t.Errorf("client %d: %v", g, err)
						return
					}
					var rep Report
					decErr := json.NewDecoder(resp.Body).Decode(&rep)
					resp.Body.Close()
					if decErr != nil || resp.StatusCode != http.StatusOK {
						t.Errorf("client %d: single status %d decode %v", g, resp.StatusCode, decErr)
						return
					}
					filesSent.Add(1)
					if rep.Path != in.Path {
						t.Errorf("client %d: got path %q, want %q", g, rep.Path, in.Path)
						return
					}
					if err := matchReport(rep, want[in.Path]); err != nil {
						t.Errorf("client %d: %s: %v", g, in.Path, err)
					}
					continue
				}
				// Batch submission over a wrap-around window of the corpus.
				start, k := rng.Intn(len(corpus)), 1+rng.Intn(8)
				req := ScanRequest{}
				for i := 0; i < k; i++ {
					in := corpus[(start+i)%len(corpus)]
					req.Files = append(req.Files, ScanFile{Path: in.Path, Source: in.Source})
				}
				payload, _ := json.Marshal(req)
				resp, err := http.Post(ts.URL+"/v1/scan", "application/json", bytes.NewReader(payload))
				if err != nil {
					t.Errorf("client %d: %v", g, err)
					return
				}
				var out BatchResponse
				decErr := json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if decErr != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("client %d: batch status %d decode %v", g, resp.StatusCode, decErr)
					return
				}
				filesSent.Add(int64(k))
				if out.Stats.Truncated || out.Error != "" {
					t.Errorf("client %d: batch truncated: %+v", g, out)
					return
				}
				if len(out.Results) != k {
					t.Errorf("client %d: %d results for %d files", g, len(out.Results), k)
					return
				}
				for i, rep := range out.Results {
					wantPath := req.Files[i].Path
					if rep.Path != wantPath {
						t.Errorf("client %d: result %d is %q, want %q (ordering broken under load)", g, i, rep.Path, wantPath)
						return
					}
					if err := matchReport(rep, want[wantPath]); err != nil {
						t.Errorf("client %d: %s: %v", g, wantPath, err)
					}
				}
			}
		}(g)
	}
	wg.Wait()

	// Cross-check the admin aggregates against the client-side tallies, then
	// drain and verify nothing outlives the run.
	resp, err := http.Get(ts.URL + "/admin/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var rep AdminReport
	decErr := json.NewDecoder(resp.Body).Decode(&rep)
	resp.Body.Close()
	if decErr != nil {
		t.Fatal(decErr)
	}
	if rep.Requests != clients*perClient {
		t.Errorf("admin requests = %d, want %d", rep.Requests, clients*perClient)
	}
	if rep.Rejected != 0 {
		t.Errorf("soak saw %d rejections with an unsaturated queue", rep.Rejected)
	}
	if rep.Files != filesSent.Load() {
		t.Errorf("admin files = %d, clients sent %d", rep.Files, filesSent.Load())
	}
	if rep.Cache == nil || rep.Cache.Entries != len(corpus) {
		t.Errorf("dedup cache holds %+v, want %d entries", rep.Cache, len(corpus))
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain after soak: %v", err)
	}
	ts.Close()
	checkNoGoroutineLeak(t, before)
}
