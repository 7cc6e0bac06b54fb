package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/corpus"
	"repro/internal/features"
	"repro/internal/js/parser"
	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/transform"
)

// leafChain builds a constant-output classifier chain: every forest is a
// single leaf tree that always predicts its fixed probability. Scanner tests
// only exercise the batch plumbing, so the model's answer can be canned.
func leafChain(labels []string, probs []float64) ml.MultiTask {
	forests := make([]*ml.Forest, len(labels))
	for i := range forests {
		forests[i] = &ml.Forest{Trees: []*ml.Tree{
			{Nodes: []ml.TreeNode{{Feature: 0, Left: -1, Right: -1, Prob: probs[i]}}},
		}}
	}
	return &ml.Chain{Names: append([]string(nil), labels...), Forests: forests}
}

// tinyDetector builds a detector around a constant chain.
func tinyDetector(labels []string, probs []float64, featOpts features.Options) *Detector {
	return &Detector{extractor: features.NewExtractor(featOpts), model: leafChain(labels, probs)}
}

// tinyScanner pairs constant level 1 and level 2 detectors. The level 1
// probabilities flag every file as minified, so level 2 always runs.
func tinyScanner(t *testing.T, opts ScanOptions, featOpts features.Options) *Scanner {
	t.Helper()
	l1 := tinyDetector(Level1Labels, []float64{0.1, 0.9, 0.2}, featOpts)
	l2probs := make([]float64, len(transform.Techniques))
	for i := range l2probs {
		l2probs[i] = 0.9 - 0.05*float64(i)
	}
	l2 := tinyDetector(Level2Labels(), l2probs, featOpts)
	s, err := NewScanner(l1, l2, opts)
	if err != nil {
		t.Fatalf("NewScanner: %v", err)
	}
	return s
}

func scanInputs(n int) []Input {
	inputs := make([]Input, n)
	for i := range inputs {
		inputs[i] = Input{
			Path:   fmt.Sprintf("file_%03d.js", i),
			Source: fmt.Sprintf("var a%d = %d; function f%d(x) { return x + a%d; } f%d(1);", i, i, i, i, i),
		}
	}
	return inputs
}

// TestScanBatchParseOnce is the acceptance criterion: one parse per input,
// even with Explain attached, shared by both detectors and the rules.
func TestScanBatchParseOnce(t *testing.T) {
	s := tinyScanner(t, ScanOptions{Workers: 4, Explain: true}, features.Options{NGramDims: 256})
	inputs := scanInputs(6)
	before := parser.Parses()
	results, stats := s.ScanBatch(inputs)
	delta := parser.Parses() - before
	if delta != int64(len(inputs)) {
		t.Fatalf("scan of %d files used %d parses, want exactly one each", len(inputs), delta)
	}
	if stats.Files != len(inputs) || stats.ParseFailures != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("result %d: %v", i, r.Err)
		}
		if r.Level2 == nil {
			t.Fatalf("result %d: level 2 missing for transformed verdict", i)
		}
	}
}

// TestScanBatchParseOnceWithRuleFeatures covers the layout where the
// diagnostics feed both the feature vector and the Explain output.
func TestScanBatchParseOnceWithRuleFeatures(t *testing.T) {
	s := tinyScanner(t, ScanOptions{Workers: 2, Explain: true},
		features.Options{NGramDims: 256, RuleFeatures: true})
	inputs := scanInputs(4)
	before := parser.Parses()
	s.ScanBatch(inputs)
	if delta := parser.Parses() - before; delta != int64(len(inputs)) {
		t.Fatalf("rule-features scan used %d parses for %d files", delta, len(inputs))
	}
}

// TestScanRulesRunOncePerFile pins one indicator-engine run per parsed file
// when the rules feed the vector (RuleFeatures), whether or not they also
// feed the Explain output, and whether or not the file has findings: a
// clean file's empty diagnostics are a result, not a request to run the
// rules again.
func TestScanRulesRunOncePerFile(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	base := corpus.RegularSet(1, rng)[0]
	inputs := append(scanInputs(3), Input{Path: base.Name, Source: base.Source})
	for _, tech := range []transform.Technique{transform.GlobalArray, transform.DebugProtection} {
		tf, err := corpus.Apply(base, rng, tech)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, Input{Path: tech.String(), Source: tf.Source})
	}
	clean, flagged := 0, 0
	for _, in := range inputs {
		diags, err := analysis.Analyze(in.Source)
		if err != nil {
			t.Fatal(err)
		}
		if len(diags) == 0 {
			clean++
		} else {
			flagged++
		}
	}
	if clean == 0 || flagged == 0 {
		t.Fatalf("inputs must mix clean and flagged files, got %d clean, %d flagged", clean, flagged)
	}
	for _, explain := range []bool{false, true} {
		s := tinyScanner(t, ScanOptions{Workers: 2, Explain: explain},
			features.Options{NGramDims: 256, RuleFeatures: true})
		reg := obs.NewRegistry()
		prev := obs.Swap(reg)
		s.ScanBatch(inputs)
		obs.Swap(prev)
		if got := reg.Counter("analysis.runs").Value(); got != int64(len(inputs)) {
			t.Errorf("Explain=%v: analysis.runs = %d for %d files, want one run each", explain, got, len(inputs))
		}
	}
}

// TestScanForceLevel2 pins the ForceLevel2 contract: every parsed file gets
// a technique ranking, even ones level 1 calls regular, while the default
// keeps level 2 gated on the transformed verdict.
func TestScanForceLevel2(t *testing.T) {
	featOpts := features.Options{NGramDims: 256}
	// A level 1 that calls everything regular: level 2 only runs when forced.
	l1 := tinyDetector(Level1Labels, []float64{0.9, 0.1, 0.1}, featOpts)
	l2probs := make([]float64, len(transform.Techniques))
	for i := range l2probs {
		l2probs[i] = 0.3
	}
	l2 := tinyDetector(Level2Labels(), l2probs, featOpts)

	plain, err := NewScanner(l1, l2, ScanOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	forced, err := NewScanner(l1, l2, ScanOptions{Workers: 1, ForceLevel2: true})
	if err != nil {
		t.Fatal(err)
	}

	inputs := scanInputs(3)
	inputs[1] = Input{Path: "broken.js", Source: "function ( {{{"}
	got, _ := plain.ScanBatch(inputs)
	for i, r := range got {
		if r.Level2 != nil {
			t.Errorf("default scan attached level 2 to regular file %d", i)
		}
	}
	got, _ = forced.ScanBatch(inputs)
	for i, r := range got {
		if i == 1 {
			if r.Level2 != nil {
				t.Error("forced level 2 must still skip parse failures")
			}
			continue
		}
		if r.Level2 == nil {
			t.Fatalf("forced scan missing level 2 on file %d", i)
		}
		if n := len(r.Level2.Ranked); n != len(transform.Techniques) {
			t.Fatalf("forced level 2 ranked %d techniques, want %d", n, len(transform.Techniques))
		}
	}
}

// TestScanBatchErrorIsolation checks that one unparseable file is reported
// in place without aborting or shifting the rest of the batch.
func TestScanBatchErrorIsolation(t *testing.T) {
	s := tinyScanner(t, ScanOptions{Workers: 4}, features.Options{NGramDims: 256})
	inputs := scanInputs(5)
	inputs[2] = Input{Path: "broken.js", Source: "function ( {{{"}
	results, stats := s.ScanBatch(inputs)
	for i, r := range results {
		if i == 2 {
			if r.Err == nil {
				t.Fatal("broken file must carry its parse error")
			}
			if !strings.Contains(r.Err.Error(), "parse") {
				t.Fatalf("error should name the parse failure: %v", r.Err)
			}
			continue
		}
		if r.Err != nil {
			t.Fatalf("healthy file %d failed: %v", i, r.Err)
		}
	}
	if stats.ParseFailures != 1 {
		t.Fatalf("ParseFailures = %d, want 1", stats.ParseFailures)
	}
	if stats.Transformed != 4 {
		t.Fatalf("Transformed = %d, want 4", stats.Transformed)
	}
}

// TestScanStreamOrder checks in-order delivery under a pool wider than the
// batch is deep, and that two runs produce identical results.
func TestScanStreamOrder(t *testing.T) {
	s := tinyScanner(t, ScanOptions{Workers: 8}, features.Options{NGramDims: 256})
	inputs := scanInputs(40)
	var order []int
	var paths []string
	s.ScanStream(inputs, func(i int, r FileResult) {
		order = append(order, i)
		paths = append(paths, r.Path)
	})
	for i, got := range order {
		if got != i {
			t.Fatalf("emit order %v is not input order", order)
		}
	}
	for i := range paths {
		if paths[i] != inputs[i].Path {
			t.Fatalf("result %d has path %q, want %q", i, paths[i], inputs[i].Path)
		}
	}
	run1, stats1 := s.ScanBatch(inputs)
	run2, stats2 := s.ScanBatch(inputs)
	if !reflect.DeepEqual(run1, run2) {
		t.Fatal("two scans of the same batch differ")
	}
	if stats1.Files != stats2.Files || stats1.Transformed != stats2.Transformed {
		t.Fatalf("stats differ: %+v vs %+v", stats1, stats2)
	}
}

func TestScanBatchEmpty(t *testing.T) {
	s := tinyScanner(t, ScanOptions{}, features.Options{NGramDims: 256})
	results, stats := s.ScanBatch(nil)
	if len(results) != 0 || stats.Files != 0 {
		t.Fatalf("empty batch: %v, %+v", results, stats)
	}
}

// TestNewScannerRejectsSwappedLevels is the satellite bugfix: handing the
// level 2 model to the level 1 slot must error instead of panicking later.
func TestNewScannerRejectsSwappedLevels(t *testing.T) {
	featOpts := features.Options{NGramDims: 256}
	l1 := tinyDetector(Level1Labels, []float64{0.1, 0.9, 0.2}, featOpts)
	l2probs := make([]float64, len(transform.Techniques))
	l2 := tinyDetector(Level2Labels(), l2probs, featOpts)
	if _, err := NewScanner(l2, l1, ScanOptions{}); err == nil {
		t.Fatal("swapped detectors must be rejected")
	} else if !strings.Contains(err.Error(), "swapped") {
		t.Fatalf("error should hint at the swap: %v", err)
	}
}

func TestNewScannerRejectsMismatchedFeatureOptions(t *testing.T) {
	l1 := tinyDetector(Level1Labels, []float64{0.1, 0.9, 0.2}, features.Options{NGramDims: 256})
	l2probs := make([]float64, len(transform.Techniques))
	l2 := tinyDetector(Level2Labels(), l2probs, features.Options{NGramDims: 512})
	if _, err := NewScanner(l1, l2, ScanOptions{}); err == nil {
		t.Fatal("mismatched feature layouts must be rejected")
	} else if !strings.Contains(err.Error(), "feature options") {
		t.Fatalf("error should name the option mismatch: %v", err)
	}
}

// TestLoadRejectsFingerprintMismatch exercises the v2 model header end to
// end at the core level: each divergence is named in the error.
func TestLoadRejectsFingerprintMismatch(t *testing.T) {
	d := tinyDetector(Level1Labels, []float64{0.1, 0.9, 0.2}, features.Options{NGramDims: 512})
	save := func() *bytes.Buffer {
		var buf bytes.Buffer
		if err := d.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return &buf
	}
	if _, err := Load(save(), features.Options{NGramDims: 256}); err == nil {
		t.Fatal("dims mismatch must fail")
	} else if !strings.Contains(err.Error(), "n-gram dims") {
		t.Fatalf("error should name the dims mismatch: %v", err)
	}
	// The window length is fixed, so a model recording any other one can
	// only come from outside this build: write one directly.
	var n3 bytes.Buffer
	if err := ml.WriteModel(&n3, d.model, ml.Fingerprint{NGramDims: 512, NGramLen: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&n3, features.Options{NGramDims: 512}); err == nil {
		t.Fatal("n-gram length mismatch must fail")
	} else if !strings.Contains(err.Error(), "length") {
		t.Fatalf("error should name the length mismatch: %v", err)
	}
	if _, err := Load(save(), features.Options{NGramDims: 512, RuleFeatures: true}); err == nil {
		t.Fatal("rule-features mismatch must fail")
	} else if !strings.Contains(err.Error(), "rule features") {
		t.Fatalf("error should name the rule-features mismatch: %v", err)
	}
	if _, err := Load(save(), features.Options{NGramDims: 512}); err != nil {
		t.Fatalf("matching options must load: %v", err)
	}
}

func TestValidateLabels(t *testing.T) {
	d := tinyDetector(Level1Labels, []float64{0.1, 0.9, 0.2}, features.Options{NGramDims: 256})
	if err := d.ValidateLabels(Level1Labels); err != nil {
		t.Fatalf("matching labels rejected: %v", err)
	}
	if err := d.ValidateLabels(Level2Labels()); err == nil {
		t.Fatal("level 2 labels must be rejected on a level 1 model")
	}
	if err := d.ValidateLabels([]string{"regular", "minified", "packed"}); err == nil {
		t.Fatal("renamed class must be rejected")
	}
}

// TestParallelTrainDeterministic checks that the worker-pool feature
// extraction inside trainDetector keeps training byte-for-byte reproducible:
// vectors land at fixed indices, so goroutine scheduling cannot reorder the
// training set.
func TestParallelTrainDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	files := corpus.RegularSet(12, rng)
	opts := Options{
		Features: features.Options{NGramDims: 128},
		Forest:   ml.ForestOptions{NumTrees: 3, Tree: ml.TreeOptions{MTry: 16}},
		Seed:     5,
	}
	save := func() []byte {
		d, err := TrainLevel1(files, opts)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := d.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(save(), save()) {
		t.Fatal("parallel feature extraction made training nondeterministic")
	}
}

// TestScanStartsNoGoroutineForOneWorker checks that a one-worker scan runs
// on the calling goroutine: a one-file batch (whatever Workers says) and a
// Workers: 1 stream start no goroutine, seen from inside emit, which runs
// between the caller's own files.
func TestScanStartsNoGoroutineForOneWorker(t *testing.T) {
	for _, c := range []struct {
		name    string
		workers int
		inputs  int
	}{
		{"oneFile", 4, 1},
		{"workers1", 1, 12},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := tinyScanner(t, ScanOptions{Workers: c.workers}, features.Options{NGramDims: 256})
			before := runtime.NumGoroutine()
			emitted := 0
			s.ScanStream(scanInputs(c.inputs), func(i int, r FileResult) {
				emitted++
				if got := runtime.NumGoroutine(); got > before {
					t.Errorf("input %d: %d goroutines inside emit, %d before the call", i, got, before)
				}
			})
			if emitted != c.inputs {
				t.Fatalf("emitted %d of %d results", emitted, c.inputs)
			}
		})
	}
}

// TestScanBatchConcurrentCallers makes concurrent ScanBatch calls from four
// goroutines on one dedup-enabled Scanner, each over the batch in its own
// rotation so the callers race on the shared cache, and checks every result
// against a sequential scan with no cache.
func TestScanBatchConcurrentCallers(t *testing.T) {
	tr := getTrained(t)
	rng := rand.New(rand.NewSource(41))
	files := corpus.RegularSet(16, rng)
	for _, tech := range []transform.Technique{transform.MinifySimple, transform.StringObfuscation, transform.GlobalArray} {
		for _, f := range files[:4] {
			tf, err := corpus.Apply(f, rng, tech)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, tf)
		}
	}
	inputs := verdictInputs(files)
	inputs = append(inputs, inputs[:8]...) // repeats within one call

	seq, err := NewScanner(tr.Level1, tr.Level2, ScanOptions{Workers: 1, Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := seq.ScanBatch(inputs)

	shared, err := NewScanner(tr.Level1, tr.Level2, ScanOptions{Workers: 2, Explain: true, Dedup: true})
	if err != nil {
		t.Fatal(err)
	}
	const callers = 4
	got := make([][]FileResult, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k := c * len(inputs) / callers
			rotated := append(append([]Input(nil), inputs[k:]...), inputs[:k]...)
			res, _ := shared.ScanBatch(rotated)
			got[c] = append(res[len(inputs)-k:], res[:len(inputs)-k]...)
		}()
	}
	wg.Wait()
	for c, res := range got {
		if len(res) != len(want) {
			t.Fatalf("caller %d: %d results, want %d", c, len(res), len(want))
		}
		for i := range res {
			if res[i].Path != want[i].Path || res[i].Bytes != want[i].Bytes {
				t.Fatalf("caller %d result %d: %s (%d B), want %s (%d B)", c, i, res[i].Path, res[i].Bytes, want[i].Path, want[i].Bytes)
			}
			sameVerdict(t, want[i].Path, want[i], res[i])
			if !reflect.DeepEqual(res[i].Diagnostics, want[i].Diagnostics) {
				t.Errorf("caller %d: %s: diagnostics differ from the sequential scan", c, want[i].Path)
			}
		}
	}
}
