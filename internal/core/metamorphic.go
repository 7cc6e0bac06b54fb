package core

import (
	"fmt"
	"math/rand"

	"repro/internal/corpus"
	"repro/internal/transform"
)

// The metamorphic property behind the level 2 detector: applying technique T
// to a regular file must not *decrease* the predicted probability of T's own
// label, because the transformed variant carries strictly more of T's signal
// than the original. The sweep below is the single implementation of that
// check; the detector-level test drives it with Detector.ProbsVec directly and
// the scan-service test drives it through POST /v1/scan, so both layers
// enforce the same property at the same tolerance.

// MetamorphicTolerance is the allowed per-file drop in a technique's own
// probability after applying that technique — small-forest vote noise, see
// EXPERIMENTS.md ("Metamorphic detector check").
const MetamorphicTolerance = 0.15

// MetamorphicViolation is one file/technique pair that broke the property.
type MetamorphicViolation struct {
	// File names the held-out regular file.
	File string
	// Technique is the transformation applied to it.
	Technique transform.Technique
	// Before and After are P(Technique) on the original and the
	// transformed variant.
	Before, After float64
}

func (v MetamorphicViolation) String() string {
	return fmt.Sprintf("%s: P(%s) dropped %.3f -> %.3f (tolerance %.2f)",
		v.File, v.Technique, v.Before, v.After, MetamorphicTolerance)
}

// MetamorphicSweep applies every monitored technique to each file and checks
// the property through probs, which must return the per-technique
// probabilities in transform.Techniques order (Detector.ProbsVec on a level
// 2 model, or any transport wrapped around it). Randomness is deterministic:
// one fixed-seed stream per technique, so adding a technique or a file never
// reshuffles another pair's transform. The error is the first transform or
// probs failure; violations only collects property breaks.
func MetamorphicSweep(files []corpus.File, probs func(src string) ([]float64, error)) ([]MetamorphicViolation, error) {
	var violations []MetamorphicViolation
	for ti, tech := range transform.Techniques {
		// One deterministic stream per technique (seed shared with the
		// historical detector-level test).
		rng := rand.New(rand.NewSource(1000 + int64(ti)))
		for i := range files {
			f := files[i]
			before, err := probs(f.Source)
			if err != nil {
				return violations, fmt.Errorf("probs(%s): %w", f.Name, err)
			}
			tf, err := corpus.Apply(f, rng, tech)
			if err != nil {
				return violations, fmt.Errorf("apply %s to %s: %w", tech, f.Name, err)
			}
			after, err := probs(tf.Source)
			if err != nil {
				return violations, fmt.Errorf("probs(transformed %s): %w", f.Name, err)
			}
			if len(before) != len(transform.Techniques) || len(after) != len(transform.Techniques) {
				return violations, fmt.Errorf("probs returned %d/%d values, want %d per call",
					len(before), len(after), len(transform.Techniques))
			}
			if after[ti] < before[ti]-MetamorphicTolerance {
				violations = append(violations, MetamorphicViolation{
					File: f.Name, Technique: tech, Before: before[ti], After: after[ti],
				})
			}
		}
	}
	return violations, nil
}
