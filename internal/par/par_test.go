package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestParallelFor covers the loop's edge cases: every index runs exactly
// once whatever the worker count, and n = 0 runs nothing.
func TestParallelFor(t *testing.T) {
	for _, workers := range []int{0, 1, 4, 100} {
		hits := make([]atomic.Int32, 37)
		For(len(hits), workers, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if h := hits[i].Load(); h != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, h)
			}
		}
	}
	For(0, 4, func(int) { t.Fatal("fn must not run for n=0") })
}

// TestParallelForSingleWorkerStaysOnCaller checks that a one-worker loop
// (one worker asked for, or one item) runs on the calling goroutine.
func TestParallelForSingleWorkerStaysOnCaller(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, c := range []struct{ n, workers int }{{5, 1}, {1, 8}} {
		For(c.n, c.workers, func(int) {
			if got := runtime.NumGoroutine(); got != before {
				t.Errorf("n=%d workers=%d: %d goroutines inside fn, %d before", c.n, c.workers, got, before)
			}
		})
	}
}

// TestRunWorkerIndices checks that Run calls every worker index once and
// waits for all of them.
func TestRunWorkerIndices(t *testing.T) {
	seen := make([]atomic.Int32, 6)
	Run(len(seen), func(w int) { seen[w].Add(1) })
	for w := range seen {
		if n := seen[w].Load(); n != 1 {
			t.Fatalf("worker %d ran %d times", w, n)
		}
	}
}

func TestSize(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, c := range []struct{ workers, n, want int }{
		{0, 1000, min(procs, 1000)},
		{-3, 1000, min(procs, 1000)},
		{4, 2, 2},
		{4, 0, 1},
		{3, 10, 3},
	} {
		if got := Size(c.workers, c.n); got != c.want {
			t.Errorf("Size(%d, %d) = %d, want %d", c.workers, c.n, got, c.want)
		}
	}
}
