package study

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/ml"
	"repro/internal/transform"
)

// FeatureRanking interprets one level 1 class: the features whose
// permutation hurts that class's binary classifier the most.
type FeatureRanking struct {
	Class    string
	Features []NamedImportance
}

// NamedImportance is one ranked feature.
type NamedImportance struct {
	Name string
	Drop float64
}

// RunFeatureImportance computes permutation importance for the level 1
// chain classifiers over held-out data, mapping dimensions back to feature
// names (hashed n-gram buckets keep their bucket names; the interesting
// entries are usually the hand-picked features of Section III-B).
func (r *Runner) RunFeatureImportance(topN int) ([]FeatureRanking, error) {
	chain, ok := r.Trained.Level1.ChainModel()
	if !ok {
		return nil, fmt.Errorf("level 1 detector is not a classifier chain")
	}

	// Evaluation set: held-out regular + one pool per class.
	var files []corpus.File
	files = append(files, r.Trained.TestRegular...)
	files = append(files, r.Trained.TestPool[transform.MinifySimple]...)
	files = append(files, r.Trained.TestPool[transform.IdentifierObfuscation]...)
	files = append(files, r.Trained.TestPool[transform.ControlFlowFlattening]...)

	ext := r.Trained.Level1.Extractor()
	x, err := core.ExtractBatch(ext, core.Inputs(files))
	if err != nil {
		return nil, err
	}

	names := ext.Names()
	for _, label := range chain.Names {
		names = append(names, "chain:"+label)
	}

	var out []FeatureRanking
	// The chain feeds each classifier the previous predictions; rebuild the
	// extended matrix link by link, exactly as Chain.PredictProbs does.
	extended := make([][]float64, len(x))
	for i := range x {
		extended[i] = append([]float64(nil), x[i]...)
	}
	classLabel := func(j int, f *corpus.File) bool {
		switch chain.Names[j] {
		case "regular":
			return !f.Transformed()
		case "minified":
			return f.Minified()
		default:
			return f.Obfuscated()
		}
	}
	for j, forest := range chain.Forests {
		y := make([]bool, len(files))
		for i := range files {
			y[i] = classLabel(j, &files[i])
		}
		imp := ml.PermutationImportance(forest, extended, y, topN, r.rng(800+int64(j)))
		ranking := FeatureRanking{Class: chain.Names[j]}
		for _, fi := range imp {
			ranking.Features = append(ranking.Features, NamedImportance{
				Name: names[fi.Feature],
				Drop: fi.Drop,
			})
		}
		out = append(out, ranking)
		for i := range extended {
			extended[i] = append(extended[i], forest.Predict(extended[i]))
		}
	}
	return out, nil
}

// PrintFeatureImportance renders the interpretability table.
func PrintFeatureImportance(w io.Writer, rankings []FeatureRanking) {
	fmt.Fprintf(w, "Level 1 permutation feature importance (held-out data)\n")
	for _, r := range rankings {
		fmt.Fprintf(w, "  class %q:\n", r.Class)
		for _, f := range r.Features {
			fmt.Fprintf(w, "    %-32s %.4f\n", f.Name, f.Drop)
		}
	}
}
