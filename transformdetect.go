// Package transformdetect statically detects JavaScript obfuscation and
// minification techniques, reproducing the pipeline of "Statically Detecting
// JavaScript Obfuscation and Minification Techniques in the Wild" (DSN
// 2021): an Esprima-compatible AST enhanced with control and data flows,
// AST 4-gram plus hand-picked features, and two random-forest classifier
// chains — level 1 separates regular from minified/obfuscated code, level 2
// names the specific techniques used.
//
// Quick start:
//
//	analyzer, err := transformdetect.TrainDefault(42)
//	res, err := analyzer.AnalyzeSource(src)
//	if res.Transformed {
//	    for _, p := range res.Techniques {
//	        fmt.Println(p.Technique, p.Probability)
//	    }
//	}
package transformdetect

import (
	"fmt"
	"math/rand"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/deobfuscate"
	"repro/internal/features"
	"repro/internal/htmlext"
	"repro/internal/ml"
	"repro/internal/transform"
)

// Technique re-exports the monitored transformation techniques.
type Technique = transform.Technique

// The ten monitored techniques plus the held-out packer.
const (
	IdentifierObfuscation = transform.IdentifierObfuscation
	StringObfuscation     = transform.StringObfuscation
	GlobalArray           = transform.GlobalArray
	NoAlphanumeric        = transform.NoAlphanumeric
	DeadCodeInjection     = transform.DeadCodeInjection
	ControlFlowFlattening = transform.ControlFlowFlattening
	SelfDefending         = transform.SelfDefending
	DebugProtection       = transform.DebugProtection
	MinifySimple          = transform.MinifySimple
	MinifyAdvanced        = transform.MinifyAdvanced
	Packer                = transform.Packer
)

// Techniques lists the ten monitored techniques in canonical order.
func Techniques() []Technique {
	return append([]Technique(nil), transform.Techniques...)
}

// TechniquePrediction is one ranked level 2 prediction.
type TechniquePrediction = core.TechniquePrediction

// Result is the full two-level analysis of one script.
type Result struct {
	// Regular, Minified, Obfuscated are the level 1 class probabilities.
	Regular    float64
	Minified   float64
	Obfuscated float64
	// Transformed is the level 1 verdict: minified and/or obfuscated.
	Transformed bool
	// Techniques ranks the monitored techniques for transformed scripts
	// (top-k with the paper's 10% confidence floor applied); nil for
	// regular scripts.
	Techniques []TechniquePrediction
	// AllTechniques carries the full ranked list, regardless of threshold.
	AllTechniques []TechniquePrediction
}

// Analyzer bundles both trained detectors behind one call. Every call runs
// the batch scan engine's per-file pipeline on a one-file batch: one parse
// feeds both detectors and, for ExplainSource, the indicator rules.
type Analyzer struct {
	level1 *core.Detector
	level2 *core.Detector
	// scan classifies; explain also returns the rules' diagnostics. err is
	// the scanners' construction error, returned by every call.
	scan, explain *core.Scanner
	err           error
	// TopK bounds the technique report; zero means 4 (the paper's Top-4
	// with 10% floor for wild studies).
	TopK int
	// Threshold is the confidence floor; zero means the paper's 10%.
	Threshold float64
}

// NewAnalyzer wraps two trained detectors. When they are not a level 1 and
// a level 2 detector over one feature layout (for example, swapped), every
// Analyze and Explain call returns the error.
func NewAnalyzer(level1, level2 *core.Detector) *Analyzer {
	a := &Analyzer{level1: level1, level2: level2}
	a.scan, a.err = core.NewScanner(level1, level2, core.ScanOptions{Workers: 1})
	if a.err == nil {
		a.explain, a.err = core.NewScanner(level1, level2, core.ScanOptions{Workers: 1, Explain: true})
	}
	return a
}

// Level1 exposes the first detector.
func (a *Analyzer) Level1() *core.Detector { return a.level1 }

// Level2 exposes the second detector.
func (a *Analyzer) Level2() *core.Detector { return a.level2 }

func (a *Analyzer) topK() int {
	if a.TopK <= 0 {
		return 4
	}
	return a.TopK
}

func (a *Analyzer) threshold() float64 {
	if a.Threshold <= 0 {
		return core.DefaultThreshold
	}
	return a.Threshold
}

// AnalyzeSource runs level 1 and, when the script is transformed, level 2.
func (a *Analyzer) AnalyzeSource(src string) (*Result, error) {
	res, _, err := a.analyze(a.scan, src)
	return res, err
}

// analyze scans src as a one-file batch on sc.
func (a *Analyzer) analyze(sc *core.Scanner, src string) (*Result, []Diagnostic, error) {
	if a.err != nil {
		return nil, nil, a.err
	}
	out, _ := sc.ScanBatch([]core.Input{{Source: src}})
	r := out[0]
	if r.Err != nil {
		return nil, nil, r.Err
	}
	res := &Result{
		Regular:     r.Level1.Regular,
		Minified:    r.Level1.Minified,
		Obfuscated:  r.Level1.Obfuscated,
		Transformed: r.Level1.IsTransformed(),
	}
	if r.Level2 != nil {
		res.AllTechniques = r.Level2.Ranked
		res.Techniques = r.Level2.TopK(a.topK(), a.threshold())
	}
	return res, r.Diagnostics, nil
}

// Diagnostic re-exports the static indicator finding type.
type Diagnostic = analysis.Diagnostic

// Diagnostics runs the static indicator rules alone — no trained model
// needed — and returns attributable findings with source spans.
func Diagnostics(src string) ([]Diagnostic, error) { return analysis.Analyze(src) }

// ExplainSource analyzes src and also returns the static indicator
// diagnostics, computed over the same parse as the verdict.
func (a *Analyzer) ExplainSource(src string) (*Result, []Diagnostic, error) {
	return a.analyze(a.explain, src)
}

// TrainConfig re-exports the pipeline training configuration.
type TrainConfig = core.TrainConfig

// TrainOptions builds a reasonable default detector configuration for the
// given seed.
func TrainOptions(seed int64) core.Options {
	return core.Options{
		Features: features.Options{NGramDims: 1024},
		Forest: ml.ForestOptions{
			NumTrees: 40,
			Parallel: true,
			Tree:     ml.TreeOptions{MTry: 128},
		},
		Seed: seed,
	}
}

// Train fits both detectors from a synthesized corpus per the paper's
// Section III-D recipe and returns an Analyzer (plus the held-out material
// in Trained for evaluation).
func Train(cfg TrainConfig) (*Analyzer, *core.Trained, error) {
	trained, err := core.Train(cfg)
	if err != nil {
		return nil, nil, err
	}
	return NewAnalyzer(trained.Level1, trained.Level2), trained, nil
}

// TrainDefault trains with default sizes from a seed.
func TrainDefault(seed int64) (*Analyzer, error) {
	a, _, err := Train(TrainConfig{Options: TrainOptions(seed)})
	return a, err
}

// Transform applies transformation techniques to JavaScript source — the
// library also ships the ten technique implementations it detects.
func Transform(src string, seed int64, techs ...Technique) (string, error) {
	f := corpus.File{Source: src}
	out, err := corpus.Apply(f, newRand(seed), techs...)
	if err != nil {
		return "", err
	}
	return out.Source, nil
}

// FilterReason re-exports the corpus filter outcome.
type FilterReason = corpus.FilterReason

// Filter applies the paper's corpus filters (size bounds and the
// conditional/function/call AST requirement).
func Filter(src string) FilterReason { return corpus.Filter(src) }

// newRand builds a deterministic rand source (kept in a helper so the
// public API does not expose math/rand types).
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// DeobfuscationReport counts the rewrites each deobfuscation pass applied.
type DeobfuscationReport = deobfuscate.Report

// Deobfuscate statically reverses recognizable obfuscation: string folding,
// global-array resolution, control-flow unflattening, dead-branch pruning,
// bracket-to-dot normalization, and hex-identifier renaming.
func Deobfuscate(src string) (string, DeobfuscationReport, error) {
	return deobfuscate.Source(src, deobfuscate.Options{})
}

// HTMLScript is one JavaScript fragment extracted from an HTML document.
type HTMLScript = htmlext.Script

// ExtractScripts pulls JavaScript out of an HTML document: inline <script>
// bodies, on* event handlers, and javascript: URLs (external src references
// are returned with their URL and an empty Source).
func ExtractScripts(html string) []HTMLScript { return htmlext.Extract(html) }

// AnalyzeHTML extracts all inline JavaScript from an HTML document, joins
// it into one unit (countering payloads scattered across script blocks),
// and analyzes it.
func (a *Analyzer) AnalyzeHTML(html string) (*Result, error) {
	joined := htmlext.JoinInline(htmlext.Extract(html))
	if joined == "" {
		return nil, fmt.Errorf("no inline scripts found")
	}
	return a.AnalyzeSource(joined)
}
