// Benchmarks regenerating every table and figure of the paper's evaluation.
// Each benchmark runs the corresponding experiment end to end (corpus
// generation, classification, aggregation) and reports the headline numbers
// as benchmark metrics, with the full table logged via -v.
//
// The detectors are trained once and shared across benchmarks; training
// time is excluded from the measurements.
package transformdetect

import (
	"os"
	"strconv"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/features"
	"repro/internal/ml"
	"repro/internal/study"
	"repro/internal/transform"
)

var (
	runnerOnce sync.Once
	runner     *study.Runner
	runnerErr  error
)

// benchScale lets `go test -bench . -benchscale 3`-style runs get closer to
// paper sizes via an environment variable (flags cannot be added here
// without colliding with the testing package).
func benchScale() int {
	if v := os.Getenv("BENCH_SCALE"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return 1
}

func benchRunner(b *testing.B) *study.Runner {
	b.Helper()
	runnerOnce.Do(func() {
		runner, runnerErr = study.NewRunner(study.Config{Scale: benchScale(), Seed: 42})
	})
	if runnerErr != nil {
		b.Fatalf("train detectors: %v", runnerErr)
	}
	return runner
}

// BenchmarkTableI_Datasets regenerates the dataset inventory of Table I.
func BenchmarkTableI_Datasets(b *testing.B) {
	r := benchRunner(b)
	b.ResetTimer()
	var total int
	for i := 0; i < b.N; i++ {
		t, err := r.RunTableI()
		if err != nil {
			b.Fatal(err)
		}
		total = 0
		for _, row := range t.Rows {
			total += row.NumJS
		}
		if i == 0 {
			b.Logf("\n%s", renderTable(func(w *tableWriter) { t.Print(w) }))
		}
	}
	b.ReportMetric(float64(total), "scripts")
}

// BenchmarkLevel1Accuracy reproduces Section III-E1's level 1 numbers
// (paper: 98.65% regular, 99.71% minified, 99.81% obfuscated, 99.41%
// overall).
func BenchmarkLevel1Accuracy(b *testing.B) {
	r := benchRunner(b)
	b.ResetTimer()
	var acc study.Level1Accuracy
	for i := 0; i < b.N; i++ {
		var err error
		acc, err = r.RunLevel1Accuracy()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Logf("\n%s", renderTable(func(w *tableWriter) { acc.Print(w) }))
	b.ReportMetric(acc.Regular*100, "regular_acc%")
	b.ReportMetric(acc.Minified*100, "minified_acc%")
	b.ReportMetric(acc.Obfuscated*100, "obfuscated_acc%")
	b.ReportMetric(acc.Overall*100, "overall_acc%")
}

// BenchmarkLevel2Accuracy reproduces Section III-E1's level 2 numbers
// (paper: 86.95% exact match; Top-1 99.63%).
func BenchmarkLevel2Accuracy(b *testing.B) {
	r := benchRunner(b)
	b.ResetTimer()
	var acc study.Level2Accuracy
	for i := 0; i < b.N; i++ {
		var err error
		acc, err = r.RunLevel2Accuracy()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Logf("\n%s", renderTable(func(w *tableWriter) { acc.Print(w) }))
	b.ReportMetric(acc.ExactMatch*100, "exact_match%")
	b.ReportMetric(acc.TopK[1]*100, "top1%")
}

// benchFigure1 runs the mixed-sample experiment shared by the three
// Figure 1 panels.
func benchFigure1(b *testing.B) study.Figure1 {
	b.Helper()
	r := benchRunner(b)
	b.ResetTimer()
	var fig study.Figure1
	for i := 0; i < b.N; i++ {
		var err error
		fig, err = r.RunFigure1(150 * benchScale())
		if err != nil {
			b.Fatal(err)
		}
	}
	return fig
}

// BenchmarkFigure1a_TopK is panel (a): plain Top-k accuracy and
// wrong/missing labels on files mixing 1-7 techniques.
func BenchmarkFigure1a_TopK(b *testing.B) {
	fig := benchFigure1(b)
	b.Logf("\n%s", renderTable(func(w *tableWriter) { fig.Print(w) }))
	b.ReportMetric(fig.PlainTopK[0].Accuracy*100, "top1%")
	b.ReportMetric(fig.PlainTopK[2].Accuracy*100, "top3%")
	b.ReportMetric(fig.Level1TransformedAccuracy*100, "level1_transformed%")
}

// BenchmarkFigure1b_Threshold10 is panel (b): Top-k with the paper's 10%
// confidence floor (paper: <0.32 wrong labels on average, accuracy over 89%
// up to 7 techniques at low k).
func BenchmarkFigure1b_Threshold10(b *testing.B) {
	fig := benchFigure1(b)
	last := fig.Threshold10[len(fig.Threshold10)-1]
	b.ReportMetric(last.AvgWrong, "avg_wrong_labels")
	b.ReportMetric(fig.Threshold10[1].Accuracy*100, "top2%")
}

// BenchmarkFigure1c_ThresholdSweep is panel (c): how many techniques remain
// detectable as the confidence threshold rises (paper: a 50% threshold
// leaves only 3-4 techniques).
func BenchmarkFigure1c_ThresholdSweep(b *testing.B) {
	fig := benchFigure1(b)
	b.ReportMetric(fig.DetectableAtThreshold[10], "labels_at_10%")
	b.ReportMetric(fig.DetectableAtThreshold[50], "labels_at_50%")
}

// BenchmarkTestSet3_Packer reproduces Section III-E3: generalization to the
// Dean Edwards-style packer never seen in training (paper: 99.52% flagged).
func BenchmarkTestSet3_Packer(b *testing.B) {
	r := benchRunner(b)
	b.ResetTimer()
	var res study.PackerResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = r.RunPacker(100 * benchScale())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Logf("\n%s", renderTable(func(w *tableWriter) { res.Print(w) }))
	b.ReportMetric(res.TransformedRate*100, "transformed%")
}

// BenchmarkAlexaTop10k reproduces Section IV-B1's headline rates (paper:
// 68.60% of scripts transformed; 89.4% of sites with ≥1 transformed
// script).
func BenchmarkAlexaTop10k(b *testing.B) {
	r := benchRunner(b)
	b.ResetTimer()
	var st study.WildStudy
	for i := 0; i < b.N; i++ {
		var err error
		st, err = r.RunAlexa()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Logf("\n%s", renderTable(func(w *tableWriter) { st.Print(w) }))
	b.ReportMetric(st.ScriptTransformedRate*100, "scripts_transformed%")
	b.ReportMetric(st.UnitRate*100, "sites_with_transformed%")
}

// BenchmarkFigure2_AlexaTechniques reproduces Figure 2: technique usage
// probability in transformed Alexa scripts (paper: minification simple
// 45.96%, advanced 40.24%, identifier obfuscation 5.72%, rest <1.94%).
func BenchmarkFigure2_AlexaTechniques(b *testing.B) {
	r := benchRunner(b)
	b.ResetTimer()
	var st study.WildStudy
	for i := 0; i < b.N; i++ {
		var err error
		st, err = r.RunAlexa()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(st.TechniqueAvg[transform.MinifySimple]*100, "min_simple%")
	b.ReportMetric(st.TechniqueAvg[transform.MinifyAdvanced]*100, "min_advanced%")
	b.ReportMetric(st.TechniqueAvg[transform.IdentifierObfuscation]*100, "ident_obf%")
}

// BenchmarkNpmTop10k reproduces Section IV-B2 (paper: 8.7% of scripts
// transformed; 15.14% of packages with ≥1 transformed script).
func BenchmarkNpmTop10k(b *testing.B) {
	r := benchRunner(b)
	b.ResetTimer()
	var st study.WildStudy
	for i := 0; i < b.N; i++ {
		var err error
		st, err = r.RunNpm()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Logf("\n%s", renderTable(func(w *tableWriter) { st.Print(w) }))
	b.ReportMetric(st.ScriptTransformedRate*100, "scripts_transformed%")
	b.ReportMetric(st.UnitRate*100, "pkgs_with_transformed%")
}

// BenchmarkFigure3_NpmTechniques reproduces Figure 3 (paper: minification
// simple 58.34%, advanced 36.57%).
func BenchmarkFigure3_NpmTechniques(b *testing.B) {
	r := benchRunner(b)
	b.ResetTimer()
	var st study.WildStudy
	for i := 0; i < b.N; i++ {
		var err error
		st, err = r.RunNpm()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(st.TechniqueAvg[transform.MinifySimple]*100, "min_simple%")
	b.ReportMetric(st.TechniqueAvg[transform.MinifyAdvanced]*100, "min_advanced%")
}

// BenchmarkFigure4_RankGroups reproduces the popularity-rank analyses: the
// Alexa gradient (top sites more transformed) and the npm inverse gradient
// (paper: top-1k packages 2.4-4.4x less likely to ship transformed code).
func BenchmarkFigure4_RankGroups(b *testing.B) {
	r := benchRunner(b)
	b.ResetTimer()
	var alexa, npm study.WildStudy
	for i := 0; i < b.N; i++ {
		var err error
		alexa, err = r.RunAlexa()
		if err != nil {
			b.Fatal(err)
		}
		npm, err = r.RunNpm()
		if err != nil {
			b.Fatal(err)
		}
	}
	topHalf := func(g []float64) float64 { return (g[0] + g[1] + g[2] + g[3] + g[4]) / 5 }
	botHalf := func(g []float64) float64 { return (g[5] + g[6] + g[7] + g[8] + g[9]) / 5 }
	b.ReportMetric(topHalf(alexa.RankGroups)*100, "alexa_top_half%")
	b.ReportMetric(botHalf(alexa.RankGroups)*100, "alexa_bottom_half%")
	b.ReportMetric(topHalf(npm.RankGroups)*100, "npm_top_half%")
	b.ReportMetric(botHalf(npm.RankGroups)*100, "npm_bottom_half%")
}

// BenchmarkMaliciousLevel1 reproduces Section IV-C1: level 1 rates per
// malware feed (paper: 65.94% DNC, 73.07% Hynek, 28.93% BSI).
func BenchmarkMaliciousLevel1(b *testing.B) {
	r := benchRunner(b)
	b.ResetTimer()
	var studies []study.MaliciousStudy
	for i := 0; i < b.N; i++ {
		var err error
		studies, err = r.RunMalicious()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Logf("\n%s", renderTable(func(w *tableWriter) { study.PrintMalicious(w, studies) }))
	for _, s := range studies {
		b.ReportMetric(s.TransformedRate*100, s.Source+"_transformed%")
	}
}

// BenchmarkFigure5_MaliciousTechniques reproduces Figure 5: the malicious
// technique mixture (paper: identifier obfuscation 25-37%, string
// obfuscation and advanced minification 17-21%).
func BenchmarkFigure5_MaliciousTechniques(b *testing.B) {
	r := benchRunner(b)
	b.ResetTimer()
	var studies []study.MaliciousStudy
	for i := 0; i < b.N; i++ {
		var err error
		studies, err = r.RunMalicious()
		if err != nil {
			b.Fatal(err)
		}
	}
	var identSum, minSum float64
	for _, s := range studies {
		identSum += s.TechniqueAvg[transform.IdentifierObfuscation]
		minSum += s.TechniqueAvg[transform.MinifySimple]
	}
	b.ReportMetric(identSum/float64(len(studies))*100, "ident_obf%")
	b.ReportMetric(minSum/float64(len(studies))*100, "min_simple%")
}

// BenchmarkFigure6_Longitudinal reproduces Figure 6: transformed-code
// prevalence over 65 months (Alexa rising; npm in three phases).
func BenchmarkFigure6_Longitudinal(b *testing.B) {
	r := benchRunner(b)
	b.ResetTimer()
	var alexa, npm study.Longitudinal
	for i := 0; i < b.N; i++ {
		var err error
		alexa, err = r.RunLongitudinal("alexa")
		if err != nil {
			b.Fatal(err)
		}
		npm, err = r.RunLongitudinal("npm")
		if err != nil {
			b.Fatal(err)
		}
	}
	aFirst, aSecond := alexa.HalfMeans()
	nFirst, nSecond := npm.HalfMeans()
	b.ReportMetric(aFirst*100, "alexa_first_half%")
	b.ReportMetric(aSecond*100, "alexa_second_half%")
	b.ReportMetric(nFirst*100, "npm_first_half%")
	b.ReportMetric(nSecond*100, "npm_second_half%")
}

// BenchmarkFigure7_AlexaLongitudinal reproduces Figure 7: Alexa technique
// drift (paper: minification simple 38.74%→47.02%; advanced 43.77%→40%).
func BenchmarkFigure7_AlexaLongitudinal(b *testing.B) {
	r := benchRunner(b)
	b.ResetTimer()
	var long study.Longitudinal
	for i := 0; i < b.N; i++ {
		var err error
		long, err = r.RunLongitudinal("alexa")
		if err != nil {
			b.Fatal(err)
		}
	}
	first, second := techniqueHalves(long, transform.MinifySimple)
	b.ReportMetric(first*100, "min_simple_first_half%")
	b.ReportMetric(second*100, "min_simple_second_half%")
}

// BenchmarkFigure8_NpmLongitudinal reproduces Figure 8: the npm technique
// mixture staying flat over time (paper: minification simple ~58.62%,
// advanced ~34.28%, identifier obfuscation ~9.71%).
func BenchmarkFigure8_NpmLongitudinal(b *testing.B) {
	r := benchRunner(b)
	b.ResetTimer()
	var long study.Longitudinal
	for i := 0; i < b.N; i++ {
		var err error
		long, err = r.RunLongitudinal("npm")
		if err != nil {
			b.Fatal(err)
		}
	}
	first, second := techniqueHalves(long, transform.MinifySimple)
	b.ReportMetric(first*100, "min_simple_first_half%")
	b.ReportMetric(second*100, "min_simple_second_half%")
}

// BenchmarkChainVsIndependent is the Section III-D3 validation ablation:
// classifier chain vs independence assumption (paper: the chain won).
func BenchmarkChainVsIndependent(b *testing.B) {
	r := benchRunner(b)
	b.ResetTimer()
	var abl study.ChainAblation
	for i := 0; i < b.N; i++ {
		var err error
		abl, err = r.RunChainAblation()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Logf("\n%s", renderTable(func(w *tableWriter) { abl.Print(w) }))
	b.ReportMetric(abl.ChainExact*100, "chain_exact%")
	b.ReportMetric(abl.IndependentExact*100, "independent_exact%")
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

// tableWriter buffers experiment tables for b.Logf.
type tableWriter struct{ buf []byte }

func (w *tableWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	return len(p), nil
}

func renderTable(f func(w *tableWriter)) string {
	var w tableWriter
	f(&w)
	return string(w.buf)
}

// techniqueHalves averages a technique's probability over the first and
// second halves of a longitudinal series.
func techniqueHalves(l study.Longitudinal, t transform.Technique) (first, second float64) {
	half := len(l.Points) / 2
	for i, p := range l.Points {
		if i < half {
			first += p.TechniqueAvg[t]
		} else {
			second += p.TechniqueAvg[t]
		}
	}
	if half > 0 {
		first /= float64(half)
		second /= float64(len(l.Points) - half)
	}
	return first, second
}

// BenchmarkUnmonitoredTechnique quantifies the Section V-A claim: a
// technique with no level 2 class (obfuscated field reference) is still
// flagged as transformed by level 1.
func BenchmarkUnmonitoredTechnique(b *testing.B) {
	r := benchRunner(b)
	b.ResetTimer()
	var res study.UnmonitoredResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = r.RunUnmonitored(60 * benchScale())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Logf("\n%s", renderTable(func(w *tableWriter) { res.Print(w) }))
	b.ReportMetric(res.TransformedRate*100, "transformed%")
}

// BenchmarkRuleFeaturesAblation trains the level 2 detector with and without
// the opt-in static-indicator feature block (features.Options.RuleFeatures,
// one dimension per analysis rule) and reports held-out Top-1 accuracy for
// both, so EXPERIMENTS.md can record the delta the rule features buy.
func BenchmarkRuleFeaturesAblation(b *testing.B) {
	train := func(ruleFeatures bool) float64 {
		cfg := core.TrainConfig{
			NumRegular: 90 * benchScale(),
			Options: core.Options{
				Features: features.Options{NGramDims: 512, RuleFeatures: ruleFeatures},
				Forest: ml.ForestOptions{
					NumTrees: 20,
					Parallel: true,
					Tree:     ml.TreeOptions{MTry: 96},
				},
				Seed: 7,
			},
		}
		tr, err := core.Train(cfg)
		if err != nil {
			b.Fatal(err)
		}
		sc, err := core.NewScanner(tr.Level1, tr.Level2, core.ScanOptions{ForceLevel2: true})
		if err != nil {
			b.Fatal(err)
		}
		var files []corpus.File
		for _, tech := range transform.Techniques {
			files = append(files, tr.TestPool[tech]...)
		}
		results, _ := sc.ScanBatch(core.Inputs(files))
		ok := 0
		for i, res := range results {
			if res.Err != nil {
				b.Fatal(res.Err)
			}
			for _, want := range core.EffectiveTechniques(files[i].Techniques) {
				if res.Level2.Ranked[0].Technique == want {
					ok++
					break
				}
			}
		}
		return float64(ok) / float64(len(files))
	}
	b.ResetTimer()
	var with, without float64
	for i := 0; i < b.N; i++ {
		without = train(false)
		with = train(true)
	}
	b.Logf("level 2 top-1 accuracy: %.3f without rule features, %.3f with", without, with)
	b.ReportMetric(without*100, "top1_base%")
	b.ReportMetric(with*100, "top1_rules%")
}

// BenchmarkFeatureImportance computes the interpretability table: which
// features drive each level 1 class (an addition beyond the paper, using
// permutation importance over the held-out pools).
func BenchmarkFeatureImportance(b *testing.B) {
	r := benchRunner(b)
	b.ResetTimer()
	var rankings []study.FeatureRanking
	for i := 0; i < b.N; i++ {
		var err error
		rankings, err = r.RunFeatureImportance(8)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Logf("\n%s", renderTable(func(w *tableWriter) { study.PrintFeatureImportance(w, rankings) }))
	if len(rankings) > 0 && len(rankings[0].Features) > 0 {
		b.ReportMetric(rankings[0].Features[0].Drop, "top_drop")
	}
}
