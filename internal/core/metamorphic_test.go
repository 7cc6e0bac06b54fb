package core

import (
	"testing"
)

// TestMetamorphicTechniqueProbability checks the metamorphic property behind
// the level 2 detector: applying technique T to a regular held-out file must
// not *decrease* the predicted probability of T's own label. The transformed
// variant carries strictly more of T's signal than the original, so a drop
// beyond noise means the label head is keying on something other than the
// technique. The sweep (and its tolerance) lives in MetamorphicSweep so the
// scan-service test enforces the identical property over HTTP; tolerance and
// the seed policy are documented in EXPERIMENTS.md ("Metamorphic detector
// check").
func TestMetamorphicTechniqueProbability(t *testing.T) {
	tr := getTrained(t)
	const maxFiles = 8 // held-out regular files sampled per technique

	files := tr.TestRegular
	if len(files) > maxFiles {
		files = files[:maxFiles]
	}
	if len(files) == 0 {
		t.Fatal("no held-out regular files")
	}

	probs := func(src string) ([]float64, error) {
		x, err := ExtractBatch(tr.Level2.Extractor(), []Input{{Source: src}})
		if err != nil {
			return nil, err
		}
		return tr.Level2.ProbsVec(x[0]), nil
	}
	violations, err := MetamorphicSweep(files, probs)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	for _, v := range violations {
		t.Error(v)
	}
}
