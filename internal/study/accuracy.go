package study

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/ml"
	"repro/internal/transform"
)

// ---------------------------------------------------------------------------
// Section III-E1 — Test set 1 (held-out single-technique samples)
// ---------------------------------------------------------------------------

// Level1Accuracy reports the level 1 detector's per-class accuracy on
// held-out data (paper: 98.65% regular, 99.81% obfuscated, 99.71% minified,
// 99.41% overall).
type Level1Accuracy struct {
	Regular     float64
	Minified    float64
	Obfuscated  float64
	Overall     float64
	Transformed float64 // accuracy of the binary transformed-vs-regular view
	N           int
}

// RunLevel1Accuracy evaluates level 1 on the held-out pools.
func (r *Runner) RunLevel1Accuracy() (Level1Accuracy, error) {
	var acc Level1Accuracy

	regular := r.Trained.TestRegular
	regResults := r.classifyAll(regular)
	regOK := 0
	for _, res := range regResults {
		if res.err != nil {
			return acc, res.err
		}
		if !res.level1.IsTransformed() {
			regOK++
		}
	}

	var minified, obfuscated []corpus.File
	minified = append(minified, r.Trained.TestPool[transform.MinifySimple]...)
	minified = append(minified, r.Trained.TestPool[transform.MinifyAdvanced]...)
	for _, t := range transform.Techniques {
		if !t.IsMinification() {
			obfuscated = append(obfuscated, r.Trained.TestPool[t]...)
		}
	}

	minResults := r.classifyAll(minified)
	minOK := 0
	for _, res := range minResults {
		if res.err != nil {
			return acc, res.err
		}
		if res.level1.IsMinified() {
			minOK++
		}
	}

	obfResults := r.classifyAll(obfuscated)
	obfOK, obfTransformedOK := 0, 0
	for _, res := range obfResults {
		if res.err != nil {
			return acc, res.err
		}
		if res.level1.IsObfuscated() {
			obfOK++
		}
		if res.level1.IsTransformed() {
			obfTransformedOK++
		}
	}

	minTransformedOK := 0
	for _, res := range minResults {
		if res.level1.IsTransformed() {
			minTransformedOK++
		}
	}

	acc.N = len(regular) + len(minified) + len(obfuscated)
	acc.Regular = ratio(regOK, len(regular))
	acc.Minified = ratio(minOK, len(minified))
	acc.Obfuscated = ratio(obfOK, len(obfuscated))
	acc.Overall = ratio(regOK+minOK+obfOK, acc.N)
	acc.Transformed = ratio(regOK+minTransformedOK+obfTransformedOK, acc.N)
	return acc, nil
}

func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// Print renders the table.
func (a Level1Accuracy) Print(w io.Writer) {
	fmt.Fprintf(w, "Level 1 accuracy (test set 1, n=%d)\n", a.N)
	fmt.Fprintf(w, "  regular     %6.2f%%   (paper: 98.65%%)\n", a.Regular*100)
	fmt.Fprintf(w, "  minified    %6.2f%%   (paper: 99.71%%)\n", a.Minified*100)
	fmt.Fprintf(w, "  obfuscated  %6.2f%%   (paper: 99.81%%)\n", a.Obfuscated*100)
	fmt.Fprintf(w, "  overall     %6.2f%%   (paper: 99.41%%)\n", a.Overall*100)
	fmt.Fprintf(w, "  transformed %6.2f%%   (paper: 99.69%%)\n", a.Transformed*100)
}

// ---------------------------------------------------------------------------
// Section III-E1 — Level 2 exact-match and Top-k
// ---------------------------------------------------------------------------

// Level2Accuracy reports the level 2 detector's exact-match and Top-k
// accuracy on held-out single-technique samples (paper: 86.95% exact,
// Top-1 99.63%, Top-2 ~90.85%, Top-3 ~98.95%).
type Level2Accuracy struct {
	ExactMatch float64
	TopK       map[int]float64
	N          int
}

// RunLevel2Accuracy evaluates level 2 on the held-out pools.
func (r *Runner) RunLevel2Accuracy() (Level2Accuracy, error) {
	acc := Level2Accuracy{TopK: make(map[int]float64)}
	var files []corpus.File
	for _, t := range transform.Techniques {
		files = append(files, r.Trained.TestPool[t]...)
	}
	results := r.classifyAllLevel2(files)
	exact := 0
	topkOK := make(map[int]int)
	for i := range results {
		if results[i].err != nil {
			return acc, results[i].err
		}
		truth := core.Level2LabelRow(&files[i])
		probs := level2ProbRow(results[i].level2)
		pred := ml.ThresholdLabels(probs, 0.5)
		if ml.ExactMatch(pred, truth) {
			exact++
		}
		maxLabels := countTrue(truth)
		for k := 1; k <= maxLabels; k++ {
			if ml.TopKCorrect(probs, truth, k) {
				topkOK[k]++
			}
		}
	}
	acc.N = len(files)
	acc.ExactMatch = ratio(exact, len(files))
	// Top-k accuracy is measured over files whose ground truth has ≥ k
	// labels (beyond that the paper's metric is trivially 0).
	counts := make(map[int]int)
	for i := range files {
		maxLabels := countTrue(core.Level2LabelRow(&files[i]))
		for k := 1; k <= maxLabels; k++ {
			counts[k]++
		}
	}
	for k, ok := range topkOK {
		acc.TopK[k] = ratio(ok, counts[k])
	}
	return acc, nil
}

// classifyAllLevel2 runs level 2 unconditionally (evaluation of the level 2
// detector alone).
func (r *Runner) classifyAllLevel2(files []corpus.File) []fileProbs {
	return classify(r.scanLevel2, files)
}

func level2ProbRow(res core.Level2Result) []float64 {
	probs := make([]float64, len(transform.Techniques))
	for _, p := range res.Ranked {
		for i, t := range transform.Techniques {
			if p.Technique == t {
				probs[i] = p.Probability
			}
		}
	}
	return probs
}

func countTrue(row []bool) int {
	n := 0
	for _, b := range row {
		if b {
			n++
		}
	}
	return n
}

// Print renders the table.
func (a Level2Accuracy) Print(w io.Writer) {
	fmt.Fprintf(w, "Level 2 accuracy (test set 1, n=%d)\n", a.N)
	fmt.Fprintf(w, "  exact match %6.2f%%  (paper: 86.95%%)\n", a.ExactMatch*100)
	for k := 1; k <= 3; k++ {
		if v, ok := a.TopK[k]; ok {
			fmt.Fprintf(w, "  top-%d       %6.2f%%\n", k, v*100)
		}
	}
}

// ---------------------------------------------------------------------------
// Section III-E2 — Figure 1 (mixed samples)
// ---------------------------------------------------------------------------

// Figure1Point is one k on the Figure 1 curves.
type Figure1Point struct {
	K          int
	Accuracy   float64
	AvgWrong   float64
	AvgMissing float64
}

// Figure1 holds the three panels of Figure 1.
type Figure1 struct {
	// PlainTopK is panel (a): Top-k with exactly k labels output.
	PlainTopK []Figure1Point
	// Threshold10 is panel (b): Top-k with the 10% confidence floor.
	Threshold10 []Figure1Point
	// DetectableAtThreshold is panel (c): how many techniques remain
	// predictable as the threshold grows.
	DetectableAtThreshold map[int]float64 // threshold percent → avg labels output
	// Level1TransformedAccuracy is the level 1 rate on the mixed files
	// (paper: 99.99%).
	Level1TransformedAccuracy float64
	N                         int
}

// RunFigure1 generates the mixed test set and evaluates both panels.
func (r *Runner) RunFigure1(n int) (Figure1, error) {
	fig := Figure1{DetectableAtThreshold: make(map[int]float64)}
	files, err := r.Trained.MixedTestSet(n, r.rng(101))
	if err != nil {
		return fig, err
	}
	fig.N = len(files)

	// Level 1 on mixed files.
	l1Results := r.classifyAll(files)
	transformedOK := 0
	for _, res := range l1Results {
		if res.err != nil {
			return fig, res.err
		}
		if res.level1.IsTransformed() {
			transformedOK++
		}
	}
	fig.Level1TransformedAccuracy = ratio(transformedOK, len(files))

	// Level 2 curves.
	l2Results := r.classifyAllLevel2(files)
	maxK := 8
	for k := 1; k <= maxK; k++ {
		var plain, thresh Figure1Point
		plain.K, thresh.K = k, k
		plainOK, threshOK := 0, 0
		for i := range l2Results {
			truth := core.Level2LabelRow(&files[i])
			probs := level2ProbRow(l2Results[i].level2)

			predPlain := ml.TopK(probs, k)
			if allInTruth(predPlain, truth) {
				plainOK++
			}
			w, m := ml.WrongMissing(predPlain, truth)
			plain.AvgWrong += float64(w)
			plain.AvgMissing += float64(m)

			predThresh := ml.TopKThreshold(probs, k, core.DefaultThreshold)
			if allInTruth(predThresh, truth) {
				threshOK++
			}
			w, m = ml.WrongMissing(predThresh, truth)
			thresh.AvgWrong += float64(w)
			thresh.AvgMissing += float64(m)
		}
		nf := float64(len(files))
		plain.Accuracy = ratio(plainOK, len(files))
		plain.AvgWrong /= nf
		plain.AvgMissing /= nf
		thresh.Accuracy = ratio(threshOK, len(files))
		thresh.AvgWrong /= nf
		thresh.AvgMissing /= nf
		fig.PlainTopK = append(fig.PlainTopK, plain)
		fig.Threshold10 = append(fig.Threshold10, thresh)
	}

	// Panel (c): average number of labels that survive each threshold.
	for _, pct := range []int{5, 10, 20, 30, 40, 50, 60, 70} {
		sum := 0.0
		for i := range l2Results {
			probs := level2ProbRow(l2Results[i].level2)
			sum += float64(len(ml.ThresholdLabels(probs, float64(pct)/100)))
		}
		fig.DetectableAtThreshold[pct] = sum / float64(len(files))
	}
	return fig, nil
}

// allInTruth reports whether every predicted label is part of the ground
// truth (the paper's Top-k correctness on mixed samples).
func allInTruth(pred []int, truth []bool) bool {
	for _, i := range pred {
		if !truth[i] {
			return false
		}
	}
	return true
}

// Print renders the three panels.
func (f Figure1) Print(w io.Writer) {
	fmt.Fprintf(w, "Figure 1 (mixed samples, n=%d; level 1 transformed %.2f%%, paper: 99.99%%)\n",
		f.N, f.Level1TransformedAccuracy*100)
	fmt.Fprintf(w, "  (a) plain top-k:      k  acc%%   wrong  missing\n")
	for _, p := range f.PlainTopK {
		fmt.Fprintf(w, "      %22d  %5.1f  %5.2f  %5.2f\n", p.K, p.Accuracy*100, p.AvgWrong, p.AvgMissing)
	}
	fmt.Fprintf(w, "  (b) top-k, 10%% floor: k  acc%%   wrong  missing\n")
	for _, p := range f.Threshold10 {
		fmt.Fprintf(w, "      %22d  %5.1f  %5.2f  %5.2f\n", p.K, p.Accuracy*100, p.AvgWrong, p.AvgMissing)
	}
	fmt.Fprintf(w, "  (c) avg labels above threshold:\n")
	for _, pct := range []int{5, 10, 20, 30, 40, 50, 60, 70} {
		fmt.Fprintf(w, "      %3d%%  %5.2f\n", pct, f.DetectableAtThreshold[pct])
	}
}

// ---------------------------------------------------------------------------
// Section III-E3 — Test set 3 (held-out packer)
// ---------------------------------------------------------------------------

// PackerResult is the generalization experiment: samples transformed by a
// tool absent from training.
type PackerResult struct {
	// TransformedRate is the fraction level 1 flags (paper: 99.52%).
	TransformedRate float64
	// TopTechniques is the technique set the 10%-floor Top-4 reports most
	// often (paper: minification advanced and simple, identifier
	// obfuscation, string obfuscation).
	TopTechniques []transform.Technique
	// TechniqueRate maps each technique to how often it appears in the
	// Top-4 report.
	TechniqueRate map[transform.Technique]float64
	N             int
}

// RunPacker evaluates the held-out packer samples.
func (r *Runner) RunPacker(n int) (PackerResult, error) {
	res := PackerResult{TechniqueRate: make(map[transform.Technique]float64)}
	files, err := r.Trained.PackerTestSet(n, r.rng(202))
	if err != nil {
		return res, err
	}
	res.N = len(files)
	l1 := r.classifyAll(files)
	transformed := 0
	counts := make(map[transform.Technique]int)
	for _, fp := range l1 {
		if fp.err != nil {
			return res, fp.err
		}
		if !fp.level1.IsTransformed() {
			continue
		}
		transformed++
		for _, p := range fp.level2.TopK(4, core.DefaultThreshold) {
			counts[p.Technique]++
		}
	}
	res.TransformedRate = ratio(transformed, len(files))
	for t, c := range counts {
		res.TechniqueRate[t] = ratio(c, transformed)
	}
	for _, t := range transform.Techniques {
		if res.TechniqueRate[t] >= 0.3 {
			res.TopTechniques = append(res.TopTechniques, t)
		}
	}
	return res, nil
}

// Print renders the experiment summary.
func (p PackerResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Test set 3: Dean Edwards-style packer, never seen in training (n=%d)\n", p.N)
	fmt.Fprintf(w, "  flagged transformed %6.2f%%  (paper: 99.52%%)\n", p.TransformedRate*100)
	fmt.Fprintf(w, "  techniques reported by top-4 @ 10%% floor:\n")
	for _, t := range transform.Techniques {
		if rate, ok := p.TechniqueRate[t]; ok && rate > 0 {
			fmt.Fprintf(w, "    %-26s %6.2f%%\n", t, rate*100)
		}
	}
}

// ---------------------------------------------------------------------------
// Validation ablation — chain vs independent (Section III-D3)
// ---------------------------------------------------------------------------

// ChainAblation compares the classifier-chain and independence-assumption
// arrangements on the same training data.
type ChainAblation struct {
	ChainExact       float64
	IndependentExact float64
	N                int
}

// RunChainAblation trains level 2 twice on the same data — once as a
// classifier chain, once with the independence assumption — and compares
// exact-match accuracy on a held-out half (the Section III-D3 validation).
func (r *Runner) RunChainAblation() (ChainAblation, error) {
	var out ChainAblation

	var l2Files []corpus.File
	for _, t := range transform.Techniques {
		l2Files = append(l2Files, r.Trained.TestPool[t]...)
	}
	// Shuffle so both halves cover every technique, then split.
	rng := r.rng(901)
	rng.Shuffle(len(l2Files), func(i, j int) { l2Files[i], l2Files[j] = l2Files[j], l2Files[i] })
	half := len(l2Files) / 2
	trainHalf, testHalf := l2Files[:half], l2Files[half:]

	indepOpts := r.cfg.detectorOptions()
	indepOpts.Independent = true
	indep, err := core.TrainLevel2(trainHalf, indepOpts)
	if err != nil {
		return out, err
	}
	chain, err := core.TrainLevel2(trainHalf, r.cfg.detectorOptions())
	if err != nil {
		return out, err
	}

	exactOf := func(d *core.Detector) (float64, error) {
		sc, err := core.NewScanner(r.Trained.Level1, d, core.ScanOptions{ForceLevel2: true})
		if err != nil {
			return 0, err
		}
		exact := 0
		for _, res := range classify(sc, testHalf) {
			if res.err != nil {
				return 0, res.err
			}
			truth := core.Level2LabelRow(res.file)
			pred := ml.ThresholdLabels(level2ProbRow(res.level2), 0.5)
			if ml.ExactMatch(pred, truth) {
				exact++
			}
		}
		return ratio(exact, len(testHalf)), nil
	}
	out.ChainExact, err = exactOf(chain)
	if err != nil {
		return out, err
	}
	out.IndependentExact, err = exactOf(indep)
	if err != nil {
		return out, err
	}
	out.N = len(testHalf)
	return out, nil
}

// Print renders the ablation.
func (c ChainAblation) Print(w io.Writer) {
	fmt.Fprintf(w, "Multi-task arrangement ablation (n=%d)\n", c.N)
	fmt.Fprintf(w, "  classifier chain     exact %6.2f%%\n", c.ChainExact*100)
	fmt.Fprintf(w, "  independence assum.  exact %6.2f%%\n", c.IndependentExact*100)
	fmt.Fprintf(w, "  (paper: the chain performed best for both levels)\n")
}

// ---------------------------------------------------------------------------
// Section V-A — unmonitored technique (obfuscated field reference)
// ---------------------------------------------------------------------------

// UnmonitoredResult is the Section V-A claim quantified: files transformed
// with a technique level 2 has no class for (obfuscated field reference)
// must still be flagged as transformed by level 1.
type UnmonitoredResult struct {
	TransformedRate float64
	N               int
}

// RunUnmonitored transforms held-out bases with the unmonitored
// field-reference technique and measures level 1 recall.
func (r *Runner) RunUnmonitored(n int) (UnmonitoredResult, error) {
	var res UnmonitoredResult
	rng := r.rng(911)
	bases := r.Trained.TestBases
	if len(bases) == 0 {
		return res, fmt.Errorf("no held-out bases")
	}
	files := make([]corpus.File, 0, n)
	for i := 0; i < n; i++ {
		f, err := corpus.Apply(bases[rng.Intn(len(bases))], rng, transform.FieldReference)
		if err != nil {
			return res, err
		}
		files = append(files, f)
	}
	results := r.classifyAll(files)
	transformed := 0
	for _, fp := range results {
		if fp.err != nil {
			return res, fp.err
		}
		if fp.level1.IsTransformed() {
			transformed++
		}
	}
	res.N = len(files)
	res.TransformedRate = ratio(transformed, len(files))
	return res, nil
}

// Print renders the experiment.
func (u UnmonitoredResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Unmonitored technique: obfuscated field reference (n=%d)\n", u.N)
	fmt.Fprintf(w, "  flagged transformed %6.2f%% (level 2 has no class for it;\n", u.TransformedRate*100)
	fmt.Fprintf(w, "  the paper's Section V-A claims level 1 still catches such files)\n")
}
