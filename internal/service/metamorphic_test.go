package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/ml"
	"repro/internal/transform"
)

var (
	trainedOnce sync.Once
	trained     *core.Trained
	trainedErr  error
)

// getTrained trains the paper pipeline once per package run, with the same
// configuration the core tests use (small corpus, small forests — minutes
// would be wrong for a gate, seconds are fine).
func getTrained(t *testing.T) *core.Trained {
	t.Helper()
	if testing.Short() {
		t.Skip("skipping end-to-end training in -short mode")
	}
	trainedOnce.Do(func() {
		trained, trainedErr = core.Train(core.TrainConfig{NumRegular: 90, Options: core.Options{
			Features: features.Options{NGramDims: 512},
			Forest: ml.ForestOptions{
				NumTrees: 20,
				Parallel: true,
				Tree:     ml.TreeOptions{MTry: 96},
			},
			Seed: 7,
		}})
	})
	if trainedErr != nil {
		t.Fatalf("train: %v", trainedErr)
	}
	return trained
}

// TestMetamorphicThroughService enforces the detector-level metamorphic
// property — applying technique T must not drop P(T) by more than the shared
// tolerance — through the whole service stack: real trained models, POST
// /v1/scan, JSON round-trip. The sweep itself is core.MetamorphicSweep, the
// same implementation the core test drives with Detector.ProbsVec directly, so
// the two layers can never drift apart on tolerance or seed policy.
func TestMetamorphicThroughService(t *testing.T) {
	tr := getTrained(t)
	swapObs(t)

	scanner, err := core.NewScanner(tr.Level1, tr.Level2, core.ScanOptions{
		Workers: 2,
		// The sweep needs technique probabilities for the *original* regular
		// files too, which level 1 correctly declines to escalate — the same
		// reason jsscand defaults to -full-probs.
		ForceLevel2: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, scanner, Config{Concurrency: 1, RequestTimeout: time.Minute, MaxRequestBytes: 64 << 20})

	// probs answers through HTTP: one raw-body scan, probabilities read back
	// out of the JSON report in transform.Techniques order.
	probs := func(src string) ([]float64, error) {
		resp, err := http.Post(ts.URL+"/v1/scan", "application/javascript", strings.NewReader(src))
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("scan status %d", resp.StatusCode)
		}
		var rep Report
		if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
			return nil, err
		}
		if rep.Error != "" {
			return nil, fmt.Errorf("scan failed: %s", rep.Error)
		}
		if len(rep.Probabilities) != len(transform.Techniques) {
			return nil, fmt.Errorf("%d technique probabilities, want %d", len(rep.Probabilities), len(transform.Techniques))
		}
		out := make([]float64, len(transform.Techniques))
		for i, tech := range transform.Techniques {
			out[i] = rep.Probabilities[tech.String()]
		}
		return out, nil
	}

	// A few held-out files suffice: each one costs 2 HTTP scans per
	// technique, and the core test already sweeps a wider sample in-process.
	files := tr.TestRegular
	if len(files) > 3 {
		files = files[:3]
	}
	if len(files) == 0 {
		t.Fatal("no held-out regular files")
	}
	violations, err := core.MetamorphicSweep(files, probs)
	if err != nil {
		t.Fatalf("sweep over HTTP: %v", err)
	}
	for _, v := range violations {
		t.Error(v)
	}
}
