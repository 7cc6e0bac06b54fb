package core

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/features"
	"repro/internal/flow"
	"repro/internal/js/lexer"
	"repro/internal/js/parser"
	"repro/internal/ml"
)

// Per-stage benchmarks: each isolates one pipeline stage over the same batch
// BenchmarkScanBatch scans, so BENCH_4.json records where the scan's time
// goes (cmd/benchreg picks up the files/sec metric per stage). Later stages
// precompute everything upstream outside the timed loop.

// reportFilesPerSec attributes the batch size to the elapsed time so each
// stage's throughput lands in the baseline alongside ns/op.
func reportFilesPerSec(b *testing.B, files int) {
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(files)*float64(b.N)/s, "files/sec")
	}
}

func BenchmarkStageLex(b *testing.B) {
	inputs := benchScanInputs(b)
	b.SetBytes(totalBytes(inputs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, in := range inputs {
			l := lexer.New(in.Source)
			for {
				tok, err := l.Next()
				if err != nil {
					b.Fatalf("%s: %v", in.Path, err)
				}
				if tok.Kind == lexer.EOF {
					break
				}
			}
		}
	}
	reportFilesPerSec(b, len(inputs))
}

func BenchmarkStageParse(b *testing.B) {
	inputs := benchScanInputs(b)
	b.SetBytes(totalBytes(inputs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, in := range inputs {
			// ParseNoTokens is what the scanner runs; token-collecting
			// Parse is benchmarked separately in the parser package.
			if _, err := parser.ParseNoTokens(in.Source); err != nil {
				b.Fatalf("%s: %v", in.Path, err)
			}
		}
	}
	reportFilesPerSec(b, len(inputs))
}

// parsedBatch parses the benchmark inputs once, outside the timed loop.
func parsedBatch(b *testing.B) ([]Input, []*parser.Result) {
	b.Helper()
	inputs := benchScanInputs(b)
	results := make([]*parser.Result, len(inputs))
	for i, in := range inputs {
		res, err := parser.ParseNoTokens(in.Source)
		if err != nil {
			b.Fatalf("%s: %v", in.Path, err)
		}
		results[i] = res
	}
	return inputs, results
}

func BenchmarkStageFlow(b *testing.B) {
	inputs, results := parsedBatch(b)
	// One session for the whole loop: the production shape, where each scan
	// worker holds a flow.Session and recycles the scope/flow plane across
	// every file it processes.
	fs := flow.NewSession()
	b.SetBytes(totalBytes(inputs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, res := range results {
			if g := fs.Build(res.Program); g == nil {
				b.Fatal("nil graph")
			}
		}
	}
	reportFilesPerSec(b, len(inputs))
}

func BenchmarkStageRules(b *testing.B) {
	inputs, results := parsedBatch(b)
	graphs := make([]*flow.Graph, len(results))
	for i, res := range results {
		graphs[i] = flow.NewSession().Build(res.Program)
	}
	b.SetBytes(totalBytes(inputs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, res := range results {
			analysis.AnalyzeParsed(inputs[j].Source, res, graphs[j])
		}
	}
	reportFilesPerSec(b, len(inputs))
}

func BenchmarkStageFeatures(b *testing.B) {
	inputs, results := parsedBatch(b)
	graphs := make([]*flow.Graph, len(results))
	diags := make([][]analysis.Diagnostic, len(results))
	for i, res := range results {
		graphs[i] = flow.NewSession().Build(res.Program)
		diags[i] = analysis.AnalyzeParsed(inputs[i].Source, res, graphs[i])
	}
	ex := features.NewExtractor(features.Options{NGramDims: 1024})
	b.SetBytes(totalBytes(inputs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, res := range results {
			if v := ex.ExtractFull(inputs[j].Source, res, graphs[j], diags[j]); len(v) == 0 {
				b.Fatal("empty vector")
			}
		}
	}
	reportFilesPerSec(b, len(inputs))
}

// deepChain builds a classifier chain of full binary trees so the inference
// benchmark walks realistic tree depths instead of the single-leaf stubs
// scanner tests use.
func deepChain(labels []string, trees, depth, dims int) ml.MultiTask {
	forests := make([]*ml.Forest, len(labels))
	for fi := range forests {
		ts := make([]*ml.Tree, trees)
		for ti := range ts {
			var nodes []ml.TreeNode
			// Complete binary tree in level order: node i has children
			// 2i+1 and 2i+2; the last level is all leaves.
			internal := (1 << depth) - 1
			total := (1 << (depth + 1)) - 1
			for i := 0; i < total; i++ {
				n := ml.TreeNode{Left: -1, Right: -1, Prob: float64(i%7) / 7}
				if i < internal {
					n.Feature = int32((fi + ti + i) % dims)
					n.Threshold = float64(i%5) / 5
					n.Left = int32(2*i + 1)
					n.Right = int32(2*i + 2)
				}
				nodes = append(nodes, n)
			}
			ts[ti] = &ml.Tree{Nodes: nodes}
		}
		forests[fi] = &ml.Forest{Trees: ts}
	}
	return &ml.Chain{Names: append([]string(nil), labels...), Forests: forests}
}

func BenchmarkStageInference(b *testing.B) {
	inputs, results := parsedBatch(b)
	ex := features.NewExtractor(features.Options{NGramDims: 1024})
	vectors := make([][]float64, len(results))
	for i, res := range results {
		g := flow.NewSession().Build(res.Program)
		vectors[i] = ex.ExtractFull(inputs[i].Source, res, g, nil)
	}
	dims := len(vectors[0])
	// Paper-scale shape: the level-2 chain with 25-tree forests of depth 8.
	model := deepChain(Level2Labels(), 25, 8, dims)
	b.SetBytes(totalBytes(inputs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, v := range vectors {
			if probs := model.PredictProbs(v); len(probs) == 0 {
				b.Fatal("empty prediction")
			}
		}
	}
	reportFilesPerSec(b, len(inputs))
}
