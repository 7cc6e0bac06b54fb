// Package par is the repository's one parallel loop. Work is handed out by
// an atomic counter rather than a channel, and the calling goroutine is
// worker 0: a loop that ends up with a single worker starts no goroutine,
// and no goroutine exists only to feed the others.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Size resolves a requested worker count: workers <= 0 means GOMAXPROCS.
// The result never exceeds max(n, 1), so a loop over n items starts no
// worker that could not claim one.
func Size(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(min(workers, n), 1)
}

// Run calls body(w) for every w in [0, workers): body(0) on the calling
// goroutine and the rest on workers-1 new goroutines. It returns once every
// call has returned, so no goroutine outlives it; workers <= 1 starts none.
func Run(workers int, body func(w int)) {
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(w)
		}()
	}
	body(0)
	wg.Wait()
}

// Counter hands out the indices [0, n) once each, in increasing order, to
// any number of goroutines.
type Counter struct {
	next atomic.Int64
	n    int64
}

// NewCounter returns a Counter over [0, n).
func NewCounter(n int) *Counter { return &Counter{n: int64(n)} }

// Claim returns the next unclaimed index; ok is false once all are taken.
func (c *Counter) Claim() (i int, ok bool) {
	j := c.next.Add(1) - 1
	return int(j), j < c.n
}

// For calls fn(i) for every i in [0, n) across Size(workers, n) workers, the
// caller included, and returns once every call has returned. fn must be
// safe to call concurrently for distinct i.
func For(n, workers int, fn func(i int)) {
	c := NewCounter(n)
	Run(Size(workers, n), func(int) {
		for i, ok := c.Claim(); ok; i, ok = c.Claim() {
			fn(i)
		}
	})
}
