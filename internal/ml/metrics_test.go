package ml

import (
	"math"
	"testing"
)

// Every metric must stay finite on degenerate inputs: empty matrices,
// single-class truth, all-negative predictions. NaNs here poison downstream
// macro-averages silently, so the tests check both value and finiteness.

func TestConfusionEdgeCases(t *testing.T) {
	cases := []struct {
		name                            string
		c                               Confusion
		precision, recall, f1, accuracy float64
	}{
		{
			name: "empty-matrix",
			c:    Confusion{},
		},
		{
			name:      "all-negative-predictions",
			c:         Confusion{TN: 7, FN: 3}, // predictor never fires
			precision: 0, recall: 0, f1: 0, accuracy: 0.7,
		},
		{
			name:      "single-class-all-positive-truth",
			c:         Confusion{TP: 4, FN: 1}, // truth has no negatives
			precision: 1, recall: 0.8, f1: 2 * 1 * 0.8 / 1.8, accuracy: 0.8,
		},
		{
			name:      "single-class-all-negative-truth",
			c:         Confusion{TN: 5, FP: 2}, // truth has no positives
			precision: 0, recall: 0, f1: 0, accuracy: 5.0 / 7.0,
		},
		{
			name:      "perfect",
			c:         Confusion{TP: 3, TN: 3},
			precision: 1, recall: 1, f1: 1, accuracy: 1,
		},
		{
			name:      "all-wrong",
			c:         Confusion{FP: 2, FN: 2},
			precision: 0, recall: 0, f1: 0, accuracy: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := []struct {
				metric  string
				v, want float64
			}{
				{"Precision", tc.c.Precision(), tc.precision},
				{"Recall", tc.c.Recall(), tc.recall},
				{"F1", tc.c.F1(), tc.f1},
				{"Accuracy", tc.c.Accuracy(), tc.accuracy},
			}
			for _, g := range got {
				if math.IsNaN(g.v) || math.IsInf(g.v, 0) {
					t.Fatalf("%s = %v, want finite", g.metric, g.v)
				}
				if math.Abs(g.v-g.want) > 1e-12 {
					t.Errorf("%s = %v, want %v", g.metric, g.v, g.want)
				}
			}
		})
	}
}

func TestConfusionObserveAndFrom(t *testing.T) {
	pred := []bool{true, true, false, false, true}
	truth := []bool{true, false, false, true, true}
	var c Confusion
	for i := range pred {
		c.Observe(pred[i], truth[i])
	}
	want := Confusion{TP: 2, FP: 1, TN: 1, FN: 1}
	if c != want {
		t.Fatalf("Observe tallies = %+v, want %+v", c, want)
	}
	if c.Total() != 5 {
		t.Fatalf("Total = %d, want 5", c.Total())
	}
}

func TestThresholdLabelsEdgeCases(t *testing.T) {
	if got := ThresholdLabels(nil, 0.5); got != nil {
		t.Fatalf("ThresholdLabels(nil) = %v, want nil", got)
	}
	// All below threshold.
	if got := ThresholdLabels([]float64{0.1, 0.2}, 0.5); got != nil {
		t.Fatalf("all-below = %v, want nil", got)
	}
	// Ordering: most probable first.
	got := ThresholdLabels([]float64{0.6, 0.9, 0.7}, 0.5)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 0 {
		t.Fatalf("ordering = %v, want [1 2 0]", got)
	}
}

func TestTopKEdgeCases(t *testing.T) {
	if got := TopK(nil, 3); len(got) != 0 {
		t.Fatalf("TopK(nil, 3) = %v, want empty", got)
	}
	if got := TopK([]float64{0.2, 0.8}, 5); len(got) != 2 {
		t.Fatalf("k beyond len = %v, want 2 entries", got)
	}
	if got := TopK([]float64{0.2, 0.8, 0.5}, 0); len(got) != 0 {
		t.Fatalf("k=0 = %v, want empty", got)
	}
}

func TestTopKCorrectEdgeCases(t *testing.T) {
	// Empty everything: vacuously correct.
	if !TopKCorrect(nil, nil, 2) {
		t.Fatal("TopKCorrect(nil, nil) = false, want true")
	}
	if !TopKCorrect([]float64{0.9, 0.1}, []bool{true, false}, 1) {
		t.Fatal("top-1 hit reported as miss")
	}
	if TopKCorrect([]float64{0.9, 0.1}, []bool{false, true}, 1) {
		t.Fatal("top-1 miss reported as hit")
	}
}

func TestExactMatchEdgeCases(t *testing.T) {
	// Empty prediction vs all-negative truth: exact.
	if !ExactMatch(nil, []bool{false, false}) {
		t.Fatal("empty pred vs all-negative truth should match")
	}
	// Empty prediction vs positive truth: not exact.
	if ExactMatch(nil, []bool{true}) {
		t.Fatal("empty pred vs positive truth should not match")
	}
	// Single-class truth, full prediction.
	if !ExactMatch([]int{0, 1}, []bool{true, true}) {
		t.Fatal("full match on all-positive truth failed")
	}
}

func TestWrongMissingEdgeCases(t *testing.T) {
	// Out-of-range predicted index counts as wrong, never panics.
	wrong, missing := WrongMissing([]int{0, 5, -1}, []bool{true, false})
	if wrong != 2 || missing != 0 {
		t.Fatalf("out-of-range = (%d, %d), want (2, 0)", wrong, missing)
	}
	wrong, missing = WrongMissing(nil, []bool{true, true})
	if wrong != 0 || missing != 2 {
		t.Fatalf("empty pred = (%d, %d), want (0, 2)", wrong, missing)
	}
	wrong, missing = WrongMissing(nil, nil)
	if wrong != 0 || missing != 0 {
		t.Fatalf("all-empty = (%d, %d), want (0, 0)", wrong, missing)
	}
}

func TestForestAccuracyEmpty(t *testing.T) {
	// An empty evaluation set must yield 0, not NaN (0/0).
	if v := forestAccuracy(&Forest{}, nil, nil); v != 0 || math.IsNaN(v) {
		t.Fatalf("forestAccuracy on empty set = %v, want 0", v)
	}
}
