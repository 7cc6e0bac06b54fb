package core

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/corpus"
	"repro/internal/features"
	"repro/internal/ml"
	"repro/internal/transform"
)

// TestModelRoundTripPredictions trains a real level 1 detector, sends it
// through the JSTFMDL2 save/load cycle, and verifies the loaded copy predicts
// identically on held-out files — including transformed ones. This guards the
// hot-path feature rewrite end to end: if bucket assignment or the hand-picked
// block shifted by even one bit, a model trained before the change would
// disagree with one loaded after it.
func TestModelRoundTripPredictions(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	train := corpus.RegularSet(12, rng)
	opts := Options{
		Features: features.Options{NGramDims: 256},
		Forest:   ml.ForestOptions{NumTrees: 4, Tree: ml.TreeOptions{MTry: 24}},
		Seed:     9,
	}
	d, err := TrainLevel1(train, opts)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(buf.Bytes()), opts.Features)
	if err != nil {
		t.Fatal(err)
	}

	held := corpus.RegularSet(6, rng)
	for i := range held {
		tf, err := corpus.Apply(held[i], rng, transform.Techniques[i%len(transform.Techniques)])
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, tf)
		if len(held) == 12 {
			break
		}
	}
	x, err := ExtractBatch(loaded.Extractor(), Inputs(held))
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range held {
		want := Level1FromProbs(d.ProbsVec(x[i]))
		got := Level1FromProbs(loaded.ProbsVec(x[i]))
		if got != want {
			t.Fatalf("%s: loaded model predicts %+v, original %+v", f.Name, got, want)
		}
	}
}
