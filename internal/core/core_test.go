package core

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/features"
	"repro/internal/ml"
	"repro/internal/transform"
)

// testTrained caches one small end-to-end training run for all tests in the
// package (training is the expensive part).
var (
	trainedOnce sync.Once
	trained     *Trained
	trainedErr  error
)

func testOptions() Options {
	return Options{
		Features: features.Options{NGramDims: 512},
		Forest: ml.ForestOptions{
			NumTrees: 20,
			Parallel: true,
			Tree:     ml.TreeOptions{MTry: 96},
		},
		Seed: 7,
	}
}

func getTrained(t *testing.T) *Trained {
	t.Helper()
	if testing.Short() {
		t.Skip("skipping end-to-end training in -short mode")
	}
	trainedOnce.Do(func() {
		trained, trainedErr = Train(TrainConfig{NumRegular: 90, Options: testOptions()})
	})
	if trainedErr != nil {
		t.Fatalf("train: %v", trainedErr)
	}
	return trained
}

func TestTrainProducesDetectors(t *testing.T) {
	tr := getTrained(t)
	if tr.Level1 == nil || tr.Level2 == nil {
		t.Fatal("both detectors must be trained")
	}
	if len(tr.TestRegular) == 0 {
		t.Fatal("held-out regular files missing")
	}
	for _, tech := range transform.Techniques {
		if len(tr.TestPool[tech]) == 0 {
			t.Fatalf("held-out pool for %s missing", tech)
		}
	}
}

// scanFiles classifies files with tr's detectors through the batch engine;
// force2 ranks the techniques of every file.
func scanFiles(t *testing.T, tr *Trained, files []corpus.File, force2 bool) []FileResult {
	t.Helper()
	s, err := NewScanner(tr.Level1, tr.Level2, ScanOptions{ForceLevel2: force2})
	if err != nil {
		t.Fatal(err)
	}
	out, _ := s.ScanBatch(Inputs(files))
	for _, r := range out {
		if r.Err != nil {
			t.Fatalf("classify %s: %v", r.Path, r.Err)
		}
	}
	return out
}

func TestLevel1SeparatesClasses(t *testing.T) {
	tr := getTrained(t)

	regOK := 0
	for _, res := range scanFiles(t, tr, tr.TestRegular, false) {
		if !res.Level1.IsTransformed() {
			regOK++
		}
	}
	if acc := float64(regOK) / float64(len(tr.TestRegular)); acc < 0.85 {
		t.Fatalf("regular accuracy = %.3f, want >= 0.85", acc)
	}

	var minified []corpus.File
	for _, tech := range []transform.Technique{transform.MinifySimple, transform.MinifyAdvanced} {
		minified = append(minified, tr.TestPool[tech]...)
	}
	minOK := 0
	for _, res := range scanFiles(t, tr, minified, false) {
		if res.Level1.IsMinified() {
			minOK++
		}
	}
	if acc := float64(minOK) / float64(len(minified)); acc < 0.9 {
		t.Fatalf("minified accuracy = %.3f, want >= 0.9", acc)
	}
}

func TestLevel2RanksCorrectTechniqueFirst(t *testing.T) {
	tr := getTrained(t)
	var files []corpus.File
	for _, tech := range transform.Techniques {
		files = append(files, tr.TestPool[tech]...)
	}
	ok := 0
	for i, res := range scanFiles(t, tr, files, true) {
		for _, want := range EffectiveTechniques(files[i].Techniques) {
			if res.Level2.Ranked[0].Technique == want {
				ok++
				break
			}
		}
	}
	if acc := float64(ok) / float64(len(files)); acc < 0.8 {
		t.Fatalf("level 2 top-1 = %.3f, want >= 0.8", acc)
	}
}

func TestDetectorRoundTripThroughModelFile(t *testing.T) {
	tr := getTrained(t)
	var buf bytes.Buffer
	if err := tr.Level1.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf, features.Options{NGramDims: 512})
	if err != nil {
		t.Fatal(err)
	}
	x, err := ExtractBatch(loaded.Extractor(), Inputs(tr.TestRegular[:1]))
	if err != nil {
		t.Fatal(err)
	}
	want, got := tr.Level1.ProbsVec(x[0]), loaded.ProbsVec(x[0])
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("prediction changed after save/load: %v vs %v", want, got)
		}
	}
}

func TestMixedTestSet(t *testing.T) {
	tr := getTrained(t)
	files, err := tr.MixedTestSet(10, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 10 {
		t.Fatalf("got %d files", len(files))
	}
	for _, f := range files {
		if len(f.Techniques) < 1 || len(f.Techniques) > 7 {
			t.Fatalf("%s: %d techniques", f.Name, len(f.Techniques))
		}
	}
}

func TestPackerTestSet(t *testing.T) {
	tr := getTrained(t)
	files, err := tr.PackerTestSet(5, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if len(f.Techniques) != 1 || f.Techniques[0] != transform.Packer {
			t.Fatalf("%s: labels %v", f.Name, f.Techniques)
		}
	}
}

func TestEffectiveTechniques(t *testing.T) {
	got := EffectiveTechniques([]transform.Technique{transform.SelfDefending})
	if len(got) != 2 {
		t.Fatalf("self-defending must imply basic minification, got %v", got)
	}
	plain := EffectiveTechniques([]transform.Technique{transform.GlobalArray})
	if len(plain) != 1 {
		t.Fatalf("global array implies nothing, got %v", plain)
	}
}

func TestLevel2FromProbsSorted(t *testing.T) {
	probs := make([]float64, len(transform.Techniques))
	probs[3] = 0.9
	probs[7] = 0.5
	res := Level2FromProbs(probs)
	if res.Ranked[0].Technique != transform.Techniques[3] {
		t.Fatalf("ranked[0] = %v", res.Ranked[0])
	}
	if res.Ranked[1].Technique != transform.Techniques[7] {
		t.Fatalf("ranked[1] = %v", res.Ranked[1])
	}
	top := res.TopK(4, 0.10)
	if len(top) != 2 {
		t.Fatalf("TopK = %v", top)
	}
}

func TestLevel1ResultThresholds(t *testing.T) {
	r := Level1Result{Regular: 0.9, Minified: 0.2, Obfuscated: 0.1}
	if r.IsTransformed() {
		t.Fatal("below-threshold classes must not flag")
	}
	r = Level1Result{Regular: 0.1, Minified: 0.8, Obfuscated: 0.1}
	if !r.IsTransformed() || !r.IsMinified() || r.IsObfuscated() {
		t.Fatal("minified flagging broken")
	}
}

func TestTrainRejectsEmpty(t *testing.T) {
	if _, err := TrainLevel1(nil, testOptions()); err == nil {
		t.Fatal("expected error on empty training set")
	}
}

func TestLevel2LabelRow(t *testing.T) {
	f := corpus.File{Techniques: []transform.Technique{transform.GlobalArray, transform.MinifySimple}}
	row := Level2LabelRow(&f)
	trueCount := 0
	for i, b := range row {
		if b {
			trueCount++
			tech := transform.Techniques[i]
			if tech != transform.GlobalArray && tech != transform.MinifySimple {
				t.Fatalf("unexpected label %v", tech)
			}
		}
	}
	if trueCount != 2 {
		t.Fatalf("trueCount = %d", trueCount)
	}
}
