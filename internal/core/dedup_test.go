package core

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/features"
	"repro/internal/js/parser"
	"repro/internal/obs"
)

// dupInputs builds a batch of n inputs over k distinct contents: every
// distinct content appears under several different paths, like a vendored
// library checked into many directories.
func dupInputs(n, k int) []Input {
	inputs := make([]Input, n)
	for i := range inputs {
		c := i % k
		inputs[i] = Input{
			Path:   fmt.Sprintf("copy_%02d/lib_%02d.js", i, c),
			Source: fmt.Sprintf("var shared%d = %d; function dup%d(x) { return x * shared%d; } dup%d(2);", c, c, c, c, c),
		}
	}
	return inputs
}

// TestDedupHitSkipsPipeline is the cache's core contract: a batch with
// repeated contents parses each distinct content once and replays the verdict
// for every repeat, stamped with the repeat's own path.
func TestDedupHitSkipsPipeline(t *testing.T) {
	swapOutObs(t)
	s := tinyScanner(t, ScanOptions{Workers: 1, Dedup: true, Explain: true}, features.Options{NGramDims: 256})
	inputs := dupInputs(12, 3)
	before := parser.Parses()
	results, stats := s.ScanBatch(inputs)
	if delta := parser.Parses() - before; delta != 3 {
		t.Fatalf("scan of 12 files over 3 contents used %d parses, want 3", delta)
	}
	if stats.Deduped != 9 {
		t.Fatalf("stats.Deduped = %d, want 9", stats.Deduped)
	}
	if stats.Files != 12 || stats.Transformed != 12 {
		t.Fatalf("dedup hits must still count in stats: %+v", stats)
	}
	for i, r := range results {
		if r.Path != inputs[i].Path {
			t.Errorf("result %d has path %q, want %q", i, r.Path, inputs[i].Path)
		}
		if want := i >= 3; r.Deduped != want {
			t.Errorf("result %d Deduped = %v, want %v", i, r.Deduped, want)
		}
		first := results[i%3]
		if r.Level1 != first.Level1 {
			t.Errorf("result %d level 1 verdict diverges from its original", i)
		}
		if len(r.Diagnostics) != len(first.Diagnostics) {
			t.Errorf("result %d diagnostics diverge from its original", i)
		}
	}
}

// TestDedupCarriesAcrossBatches checks the cache lives on the Scanner, not
// the call: a second batch over known contents does zero parsing.
func TestDedupCarriesAcrossBatches(t *testing.T) {
	swapOutObs(t)
	s := tinyScanner(t, ScanOptions{Workers: 4, Dedup: true}, features.Options{NGramDims: 256})
	inputs := dupInputs(8, 8)
	s.ScanBatch(inputs)
	before := parser.Parses()
	results, stats := s.ScanBatch(inputs)
	if delta := parser.Parses() - before; delta != 0 {
		t.Fatalf("second batch re-parsed %d files", delta)
	}
	if stats.Deduped != len(inputs) {
		t.Fatalf("stats.Deduped = %d, want %d", stats.Deduped, len(inputs))
	}
	for i, r := range results {
		if !r.Deduped {
			t.Errorf("result %d not served from cache", i)
		}
	}
}

// TestDedupParseFailuresCached: identical broken bytes fail identically, so
// the error verdict replays without re-parsing and still counts as a failure.
func TestDedupParseFailuresCached(t *testing.T) {
	swapOutObs(t)
	s := tinyScanner(t, ScanOptions{Workers: 1, Dedup: true}, features.Options{NGramDims: 256})
	inputs := []Input{
		{Path: "a/broken.js", Source: "function ( {{{"},
		{Path: "b/broken.js", Source: "function ( {{{"},
	}
	before := parser.Parses()
	results, stats := s.ScanBatch(inputs)
	if delta := parser.Parses() - before; delta != 1 {
		t.Fatalf("broken duplicate re-parsed: %d parses", delta)
	}
	if stats.ParseFailures != 2 || stats.Deduped != 1 {
		t.Fatalf("stats = %+v, want 2 failures with 1 dedup", stats)
	}
	if results[1].Err == nil || !results[1].Deduped {
		t.Fatalf("cached failure lost its error: %+v", results[1])
	}
}

// TestDedupEvictionBound fills the cache past capacity and checks both the
// bound and the LRU order: the least recently used content is the one that
// must be re-scanned.
func TestDedupEvictionBound(t *testing.T) {
	swapOutObs(t)
	s := tinyScanner(t, ScanOptions{Workers: 1, Dedup: true, DedupCapacity: 2}, features.Options{NGramDims: 256})
	a := Input{Path: "a.js", Source: "var a = 1;"}
	b := Input{Path: "b.js", Source: "var b = 2;"}
	c := Input{Path: "c.js", Source: "var c = 3;"}

	s.ScanBatch([]Input{a, b})
	// Touch a so b becomes least recently used, then add c to evict b.
	s.ScanBatch([]Input{a, c})
	if got := s.cache.len(); got != 2 {
		t.Fatalf("cache holds %d entries, capacity 2", got)
	}

	// a is still cached; b was evicted, and re-inserting it evicts c (the
	// LRU after a's hit) before the batch reaches c, so both re-parse.
	before := parser.Parses()
	_, stats := s.ScanBatch([]Input{a, b, c})
	if delta := parser.Parses() - before; delta != 2 {
		t.Fatalf("%d parses after eviction, want 2 (evicted b, then displaced c)", delta)
	}
	if stats.Deduped != 1 {
		t.Fatalf("stats.Deduped = %d, want 1 (only a stayed cached)", stats.Deduped)
	}
	if got := s.cache.len(); got != 2 {
		t.Fatalf("cache grew past capacity: %d entries", got)
	}
}

// TestDedupObsCounters checks the cache surfaces through the observability
// registry under its documented metric names.
func TestDedupObsCounters(t *testing.T) {
	swapOutObs(t)
	reg := obs.Enable()
	defer obs.Disable()
	s := tinyScanner(t, ScanOptions{Workers: 1, Dedup: true, DedupCapacity: 2}, features.Options{NGramDims: 256})
	// A miss, B miss, A hit (B becomes LRU), C miss evicting B.
	_, _ = s.ScanBatch([]Input{
		{Path: "1.js", Source: "var a = 1;"},
		{Path: "2.js", Source: "var b = 2;"},
		{Path: "3.js", Source: "var a = 1;"},
		{Path: "4.js", Source: "var c = 3;"},
	})
	if got := reg.Counter("scan.cache.miss").Value(); got != 3 {
		t.Errorf("scan.cache.miss = %d, want 3", got)
	}
	if got := reg.Counter("scan.cache.hit").Value(); got != 1 {
		t.Errorf("scan.cache.hit = %d, want 1", got)
	}
	if got := reg.Counter("scan.cache.evict").Value(); got != 1 {
		t.Errorf("scan.cache.evict = %d, want 1", got)
	}
}

// TestDedupCancellationWarmCache cancels a streaming scan that is being fed
// from a warm cache and verifies the contract still holds: the emitted
// results are a contiguous input-ordered prefix and the worker pool drains
// (no goroutine leak).
func TestDedupCancellationWarmCache(t *testing.T) {
	swapOutObs(t)
	s := tinyScanner(t, ScanOptions{Workers: 4, Dedup: true}, features.Options{NGramDims: 256})
	inputs := dupInputs(40, 5)
	s.ScanBatch(inputs) // warm every content

	goroutinesBefore := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var emitted []int
	_, err := s.ScanStreamContext(ctx, inputs, func(i int, r FileResult) {
		emitted = append(emitted, i)
		if !r.Deduped {
			t.Errorf("result %d not served from the warm cache", i)
		}
		if len(emitted) == 7 {
			cancel()
		}
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The emitter sees its own cancel before the next emit, so the prefix
	// ends exactly where emit cancelled, however many results were ready.
	if len(emitted) != 7 {
		t.Fatalf("%d results emitted, want exactly the 7 before the cancel", len(emitted))
	}
	for i, got := range emitted {
		if got != i {
			t.Fatalf("emitted prefix %v is not contiguous input order", emitted)
		}
	}
	// The pool must have drained by return time; give the runtime a moment
	// to retire finished goroutines before comparing.
	for i := 0; i < 50; i++ {
		if runtime.NumGoroutine() <= goroutinesBefore {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines grew from %d to %d after cancelled scan", goroutinesBefore, runtime.NumGoroutine())
}

// TestDedupStats covers the admin-endpoint accessor: occupancy and capacity
// for a dedup scanner, ok=false without the cache.
func TestDedupStats(t *testing.T) {
	swapOutObs(t)
	s := tinyScanner(t, ScanOptions{Workers: 1, Dedup: true, DedupCapacity: 8}, features.Options{NGramDims: 256})
	if st, ok := s.DedupStats(); !ok || st.Entries != 0 || st.Capacity != 8 {
		t.Fatalf("fresh cache stats = %+v, %v", st, ok)
	}
	s.ScanBatch(dupInputs(6, 3))
	if st, ok := s.DedupStats(); !ok || st.Entries != 3 || st.Capacity != 8 {
		t.Fatalf("warm cache stats = %+v, %v, want 3 entries", st, ok)
	}
	plain := tinyScanner(t, ScanOptions{Workers: 1}, features.Options{NGramDims: 256})
	if _, ok := plain.DedupStats(); ok {
		t.Fatal("scanner without dedup must report ok=false")
	}
}

// TestDedupOffByDefault guards the opt-in: without ScanOptions.Dedup every
// repeat is scanned in full.
func TestDedupOffByDefault(t *testing.T) {
	swapOutObs(t)
	s := tinyScanner(t, ScanOptions{Workers: 1}, features.Options{NGramDims: 256})
	inputs := dupInputs(6, 2)
	before := parser.Parses()
	_, stats := s.ScanBatch(inputs)
	if delta := parser.Parses() - before; delta != int64(len(inputs)) {
		t.Fatalf("dedup-less scan used %d parses for %d files", delta, len(inputs))
	}
	if stats.Deduped != 0 {
		t.Fatalf("stats.Deduped = %d without Dedup enabled", stats.Deduped)
	}
}
