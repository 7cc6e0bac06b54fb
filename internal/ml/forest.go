package ml

import (
	"math/rand"

	"repro/internal/obs"
	"repro/internal/par"
)

// ForestOptions configures random-forest training.
type ForestOptions struct {
	// NumTrees is the ensemble size; zero means 40.
	NumTrees int
	// Tree holds the per-tree CART options.
	Tree TreeOptions
	// Parallel enables goroutine-per-core training.
	Parallel bool
}

func (o ForestOptions) numTrees() int {
	if o.NumTrees <= 0 {
		return 40
	}
	return o.NumTrees
}

// Forest is a bagged ensemble of CART trees; the predicted probability is
// the mean of the member probabilities.
type Forest struct {
	Trees []*Tree
}

// Predict returns the probability of the positive class for x.
func (f *Forest) Predict(x []float64) float64 {
	if len(f.Trees) == 0 {
		return 0.5
	}
	obs.Add("ml.tree_evals", int64(len(f.Trees)))
	sum := 0.0
	for _, t := range f.Trees {
		sum += t.Predict(x)
	}
	return sum / float64(len(f.Trees))
}

// TrainForest fits a random forest with bootstrap sampling.
func TrainForest(x [][]float64, y []bool, opts ForestOptions, rng *rand.Rand) *Forest {
	n := len(x)
	numTrees := opts.numTrees()
	forest := &Forest{Trees: make([]*Tree, numTrees)}
	if n == 0 {
		for i := range forest.Trees {
			forest.Trees[i] = &Tree{Nodes: []TreeNode{{Left: -1, Right: -1, Prob: 0.5}}}
		}
		return forest
	}

	// Derive an independent seed per tree up front so parallel training is
	// deterministic for a given rng state.
	seeds := make([]int64, numTrees)
	for i := range seeds {
		seeds[i] = rng.Int63()
	}

	train := func(i int) {
		treeRng := rand.New(rand.NewSource(seeds[i]))
		idx := make([]int, n)
		for j := range idx {
			idx[j] = treeRng.Intn(n)
		}
		forest.Trees[i] = TrainTree(x, y, idx, opts.Tree, treeRng)
	}

	workers := 1
	if opts.Parallel {
		workers = 0
	}
	par.For(numTrees, workers, train)
	return forest
}
