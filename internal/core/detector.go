// Package core wires the pipeline of the paper together: feature extraction
// over the flow-enhanced AST, the level 1 detector (regular / minified /
// obfuscated) and the level 2 detector (the ten monitored transformation
// techniques), trained as random-forest classifier chains (Section III).
package core

import (
	"fmt"
	"io"
	"math/rand"
	"os"

	"repro/internal/corpus"
	"repro/internal/features"
	"repro/internal/ml"
	"repro/internal/transform"
)

// Level1Labels are the first detector's classes, in chain order.
var Level1Labels = []string{"regular", "minified", "obfuscated"}

// Level2Labels lists the ten technique names in chain order.
func Level2Labels() []string {
	out := make([]string, len(transform.Techniques))
	for i, t := range transform.Techniques {
		out[i] = t.String()
	}
	return out
}

// Options configures detector training.
type Options struct {
	// Features configures the vector layout; must match between training
	// and classification.
	Features features.Options
	// Forest configures the per-label random forests.
	Forest ml.ForestOptions
	// Independent selects the binary-relevance arrangement instead of the
	// classifier chain (the paper's validation preferred the chain; the
	// ablation benchmark compares both).
	Independent bool
	// Seed drives all randomness.
	Seed int64
}

// Detector is one trained multi-task detector plus its feature extractor.
type Detector struct {
	extractor *features.Extractor
	model     ml.MultiTask
}

// Labels returns the detector's class names.
func (d *Detector) Labels() []string { return d.model.Labels() }

// ProbsVec classifies a pre-extracted feature vector.
func (d *Detector) ProbsVec(vec features.Vector) []float64 {
	return d.model.PredictProbs(vec)
}

// Extractor exposes the feature extractor (shared with callers that batch
// extraction).
func (d *Detector) Extractor() *features.Extractor { return d.extractor }

// ---------------------------------------------------------------------------
// Level 1
// ---------------------------------------------------------------------------

// Level1Result is the first detector's verdict on a file.
type Level1Result struct {
	// Regular, Minified, Obfuscated are the per-class probabilities.
	Regular    float64
	Minified   float64
	Obfuscated float64
}

// IsMinified applies the 0.5 decision threshold.
func (r Level1Result) IsMinified() bool { return r.Minified >= 0.5 }

// IsObfuscated applies the 0.5 decision threshold.
func (r Level1Result) IsObfuscated() bool { return r.Obfuscated >= 0.5 }

// IsTransformed reports the paper's "transformed" verdict: flagged as
// obfuscated and/or minified.
func (r Level1Result) IsTransformed() bool { return r.IsMinified() || r.IsObfuscated() }

// level1Labels computes the label row for a file.
func level1Labels(f *corpus.File) []bool {
	return []bool{!f.Transformed(), f.Minified(), f.Obfuscated()}
}

// TrainLevel1 fits the level 1 detector on the given files.
func TrainLevel1(files []corpus.File, opts Options) (*Detector, error) {
	return trainDetector(files, Level1Labels, level1Labels, opts)
}

func level1FromProbs(probs []float64) Level1Result {
	return Level1Result{Regular: probs[0], Minified: probs[1], Obfuscated: probs[2]}
}

// Level1FromProbs converts raw chain probabilities into a Level1Result.
func Level1FromProbs(probs []float64) Level1Result { return level1FromProbs(probs) }

// ---------------------------------------------------------------------------
// Level 2
// ---------------------------------------------------------------------------

// TechniquePrediction is one ranked level 2 prediction.
type TechniquePrediction struct {
	Technique   transform.Technique
	Probability float64
}

// Level2Result ranks the ten techniques for a transformed file.
type Level2Result struct {
	// Ranked lists all ten techniques, most probable first.
	Ranked []TechniquePrediction
}

// DefaultThreshold is the paper's empirically selected 10% confidence floor
// (Section III-E2).
const DefaultThreshold = 0.10

// TopK returns the k most probable techniques with probability ≥ threshold.
func (r Level2Result) TopK(k int, threshold float64) []TechniquePrediction {
	var out []TechniquePrediction
	for _, p := range r.Ranked {
		if len(out) == k {
			break
		}
		if p.Probability >= threshold {
			out = append(out, p)
		}
	}
	return out
}

// EffectiveTechniques expands a ground-truth technique set with implied
// labels: self-defending ships minified output, so its samples also carry
// the basic-minification label (the paper notes tools that "always perform
// a specific technique in combination with others", giving up to three
// labels per single-configuration file).
func EffectiveTechniques(techs []transform.Technique) []transform.Technique {
	out := append([]transform.Technique(nil), techs...)
	have := make(map[transform.Technique]bool, len(out))
	for _, t := range out {
		have[t] = true
	}
	if have[transform.SelfDefending] && !have[transform.MinifySimple] {
		out = append(out, transform.MinifySimple)
	}
	return out
}

// level2Labels computes the ten-column label row for a file.
func level2Labels(f *corpus.File) []bool {
	row := make([]bool, len(transform.Techniques))
	for _, t := range EffectiveTechniques(f.Techniques) {
		for i, known := range transform.Techniques {
			if t == known {
				row[i] = true
			}
		}
	}
	return row
}

// Level2LabelRow exposes the ground-truth row builder for evaluation code.
func Level2LabelRow(f *corpus.File) []bool { return level2Labels(f) }

// TrainLevel2 fits the level 2 detector on transformed files.
func TrainLevel2(files []corpus.File, opts Options) (*Detector, error) {
	return trainDetector(files, Level2Labels(), level2Labels, opts)
}

// Level2FromProbs converts raw chain probabilities into a ranked result.
func Level2FromProbs(probs []float64) Level2Result {
	res := Level2Result{Ranked: make([]TechniquePrediction, len(probs))}
	for i, p := range probs {
		res.Ranked[i] = TechniquePrediction{Technique: transform.Techniques[i], Probability: p}
	}
	for i := 1; i < len(res.Ranked); i++ {
		for j := i; j > 0 && res.Ranked[j].Probability > res.Ranked[j-1].Probability; j-- {
			res.Ranked[j], res.Ranked[j-1] = res.Ranked[j-1], res.Ranked[j]
		}
	}
	return res
}

// ---------------------------------------------------------------------------
// Shared training
// ---------------------------------------------------------------------------

func trainDetector(files []corpus.File, labels []string, labelRow func(*corpus.File) []bool, opts Options) (*Detector, error) {
	if len(files) == 0 {
		return nil, fmt.Errorf("core: empty training set")
	}
	ext := features.NewExtractor(opts.Features)
	// Feature extraction dominates training time; ExtractBatch runs it on
	// the scan's per-file pipeline, with rows at fixed indices, so training
	// stays deterministic.
	x, err := ExtractBatch(ext, Inputs(files))
	if err != nil {
		return nil, fmt.Errorf("core: extract %w", err)
	}
	y := make([][]bool, len(files))
	for i := range files {
		y[i] = labelRow(&files[i])
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	var model ml.MultiTask
	if opts.Independent {
		model, err = ml.TrainIndependent(x, y, labels, opts.Forest, rng)
	} else {
		model, err = ml.TrainChain(x, y, labels, opts.Forest, rng)
	}
	if err != nil {
		return nil, err
	}
	return &Detector{extractor: ext, model: model}, nil
}

// ---------------------------------------------------------------------------
// Persistence
// ---------------------------------------------------------------------------

// fingerprint derives the model-file layout fingerprint from the detector's
// feature options.
func fingerprint(o features.Options) ml.Fingerprint {
	return ml.Fingerprint{
		NGramDims:    uint32(o.Dims()),
		NGramLen:     features.NGramLen,
		RuleFeatures: o.RuleFeatures,
	}
}

// Save writes the detector's model to w in the v2 format, which embeds the
// feature-options fingerprint so Load can reject a mismatched -dims or
// rule-features setting instead of silently misclassifying.
func (d *Detector) Save(w io.Writer) error {
	return ml.WriteModel(w, d.model, fingerprint(d.extractor.Options()))
}

// SaveFile writes the model to a file.
func (d *Detector) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := d.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Load reads a detector model from r, using the given feature options. v2
// model files carry a feature-options fingerprint; Load fails loudly when it
// does not match featOpts. v1 files carry none and load unchecked for
// back-compat.
func Load(r io.Reader, featOpts features.Options) (*Detector, error) {
	model, fp, err := ml.ReadModel(r)
	if err != nil {
		return nil, err
	}
	if fp != nil {
		want := fingerprint(featOpts)
		switch {
		case fp.NGramDims != want.NGramDims:
			return nil, fmt.Errorf("core: model was trained with %d n-gram dims, loading with %d (pass the training -dims)", fp.NGramDims, want.NGramDims)
		case fp.NGramLen != want.NGramLen:
			return nil, fmt.Errorf("core: model was trained with n-gram length %d, loading with %d", fp.NGramLen, want.NGramLen)
		case fp.RuleFeatures != want.RuleFeatures:
			return nil, fmt.Errorf("core: model was trained with rule features %v, loading with %v", fp.RuleFeatures, want.RuleFeatures)
		}
	}
	return &Detector{extractor: features.NewExtractor(featOpts), model: model}, nil
}

// LoadFile reads a detector model from a file.
func LoadFile(path string, featOpts features.Options) (*Detector, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	det, err := Load(f, featOpts)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return det, nil
}

// ValidateLabels checks the loaded model's classes against want, catching a
// level1.model/level2.model swap before it panics in level1FromProbs or
// silently misreads technique ranks.
func (d *Detector) ValidateLabels(want []string) error {
	got := d.model.Labels()
	if len(got) != len(want) {
		return fmt.Errorf("model has %d classes %v, want %d %v (level1/level2 files swapped?)", len(got), got, len(want), want)
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("model class %d is %q, want %q (level1/level2 files swapped?)", i, got[i], want[i])
		}
	}
	return nil
}

// LoadLevelFile reads a detector model from a file and validates that it
// carries the expected label set (Level1Labels or Level2Labels()).
func LoadLevelFile(path string, featOpts features.Options, wantLabels []string) (*Detector, error) {
	det, err := LoadFile(path, featOpts)
	if err != nil {
		return nil, err
	}
	if err := det.ValidateLabels(wantLabels); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return det, nil
}

// ChainModel returns the underlying classifier chain when the detector was
// trained with the chain arrangement (used by interpretability tooling).
func (d *Detector) ChainModel() (*ml.Chain, bool) {
	c, ok := d.model.(*ml.Chain)
	return c, ok
}
