package ml

import "sort"

// ThresholdLabels returns the indices of labels whose probability is at
// least threshold, most probable first.
func ThresholdLabels(probs []float64, threshold float64) []int {
	var idx []int
	for i, p := range probs {
		if p >= threshold {
			idx = append(idx, i)
		}
	}
	sort.Slice(idx, func(a, b int) bool { return probs[idx[a]] > probs[idx[b]] })
	return idx
}

// TopK returns the indices of the k most probable labels, most probable
// first.
func TopK(probs []float64, k int) []int {
	idx := make([]int, len(probs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return probs[idx[a]] > probs[idx[b]] })
	if k > len(idx) {
		k = len(idx)
	}
	return idx[:k]
}

// TopKThreshold keeps at most k labels, all with probability ≥ threshold
// (the paper's Figure 1b setting: Top-k with a 10% confidence floor).
func TopKThreshold(probs []float64, k int, threshold float64) []int {
	top := TopK(probs, k)
	var out []int
	for _, i := range top {
		if probs[i] >= threshold {
			out = append(out, i)
		}
	}
	return out
}

// TopKCorrect implements the paper's Top-k criterion: the prediction is
// correct when all k most-probable labels are part of the ground truth.
func TopKCorrect(probs []float64, truth []bool, k int) bool {
	for _, i := range TopK(probs, k) {
		if !truth[i] {
			return false
		}
	}
	return true
}

// ExactMatch reports whether the thresholded label set equals the ground
// truth exactly (both the labels and their number, Section III-E1).
func ExactMatch(pred []int, truth []bool) bool {
	want := 0
	for _, t := range truth {
		if t {
			want++
		}
	}
	if len(pred) != want {
		return false
	}
	for _, i := range pred {
		if !truth[i] {
			return false
		}
	}
	return true
}

// WrongMissing counts predicted labels not in the truth (wrong) and truth
// labels not predicted (missing), as plotted in Figure 1. Predicted indices
// outside the truth vector count as wrong rather than panicking.
func WrongMissing(pred []int, truth []bool) (wrong, missing int) {
	predSet := make(map[int]bool, len(pred))
	for _, i := range pred {
		predSet[i] = true
		if i < 0 || i >= len(truth) || !truth[i] {
			wrong++
		}
	}
	for i, t := range truth {
		if t && !predSet[i] {
			missing++
		}
	}
	return wrong, missing
}

// Confusion is a binary confusion matrix. The zero value is an empty matrix;
// every derived metric on it is defined (0, never NaN), so degenerate
// evaluation splits — single-class truth, all-negative predictions — report
// scores instead of poisoning downstream averages.
type Confusion struct {
	TP, FP, TN, FN int
}

// Observe tallies one prediction against its ground truth.
func (c *Confusion) Observe(pred, truth bool) {
	switch {
	case pred && truth:
		c.TP++
	case pred && !truth:
		c.FP++
	case !pred && truth:
		c.FN++
	default:
		c.TN++
	}
}

// Total is the number of observations in the matrix.
func (c Confusion) Total() int { return c.TP + c.FP + c.TN + c.FN }

// Precision is TP/(TP+FP), or 0 when nothing was predicted positive.
func (c Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall is TP/(TP+FN), or 0 when the truth has no positives.
func (c Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// F1 is the harmonic mean of precision and recall, or 0 when both are 0.
func (c Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// Accuracy is (TP+TN)/total, or 0 for an empty matrix.
func (c Confusion) Accuracy() float64 {
	if c.Total() == 0 {
		return 0
	}
	return float64(c.TP+c.TN) / float64(c.Total())
}
