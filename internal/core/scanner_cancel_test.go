package core

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/features"
)

// bulkyInputs builds inputs whose parse takes long enough that a mid-batch
// cancellation lands while most of the batch is still queued.
func bulkyInputs(n int) []Input {
	var b strings.Builder
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&b, "function fn%d(a, b) { var t = a * %d + b; return t ? fn(t - 1) : [a, b, t]; }\n", i, i)
	}
	src := b.String()
	inputs := make([]Input, n)
	for i := range inputs {
		inputs[i] = Input{Path: fmt.Sprintf("bulk_%03d.js", i), Source: src}
	}
	return inputs
}

// TestScanStreamContextCancel cancels from inside emit and asserts the
// three properties the batch engine promises: every worker has returned
// when the call does (no goroutine leak), emission stops at the cancel, and the
// partial results are a contiguous input-ordered prefix. It runs with
// helpers, on the caller alone (Workers: 1), and on a one-input batch,
// where the cancel lands after the only result and so cuts nothing short.
func TestScanStreamContextCancel(t *testing.T) {
	for _, c := range []struct {
		name    string
		workers int
		inputs  int
	}{
		{"workers2", 2, 200},
		{"workers1", 1, 200},
		{"oneInput", 2, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := tinyScanner(t, ScanOptions{Workers: c.workers}, features.Options{NGramDims: 256})
			inputs := bulkyInputs(c.inputs)
			cancelAfter := min(3, len(inputs))
			cutShort := cancelAfter < len(inputs)

			before := runtime.NumGoroutine()

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var emitted []int
			var paths []string
			stats, err := s.ScanStreamContext(ctx, inputs, func(i int, r FileResult) {
				emitted = append(emitted, i)
				paths = append(paths, r.Path)
				if len(emitted) == cancelAfter {
					cancel()
				}
			})

			if cutShort {
				if err != context.Canceled {
					t.Fatalf("err = %v, want context.Canceled", err)
				}
				if len(emitted) == len(inputs) {
					t.Fatalf("all %d inputs were emitted; cancellation did not cut the batch short", len(inputs))
				}
			} else if err != nil || len(emitted) != len(inputs) {
				t.Fatalf("err = %v after %d of %d results, want nil after all (the cancel came after the last result)", err, len(emitted), len(inputs))
			}
			if len(emitted) != cancelAfter {
				t.Fatalf("emitted %d results, want exactly %d: the emitter stops at its own cancel", len(emitted), cancelAfter)
			}
			// Partial results must be the contiguous prefix 0..k-1, in input order.
			for k, i := range emitted {
				if i != k {
					t.Fatalf("emitted[%d] = input %d, want contiguous input-ordered prefix", k, i)
				}
				if paths[k] != inputs[i].Path {
					t.Fatalf("emitted[%d] path = %q, want %q", k, paths[k], inputs[i].Path)
				}
			}
			if stats.Files != len(emitted) {
				t.Fatalf("stats.Files = %d, want %d (emitted prefix only)", stats.Files, len(emitted))
			}

			// Workers must have drained by the time the call returns. Allow
			// the runtime a moment to retire exiting goroutines before
			// declaring a leak.
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if after := runtime.NumGoroutine(); after > before {
				t.Fatalf("goroutine leak: %d before scan, %d after cancellation", before, after)
			}
		})
	}
}

// TestScanBatchContextPreCancelled asserts that an already-dead context scans
// nothing at all.
func TestScanBatchContextPreCancelled(t *testing.T) {
	s := tinyScanner(t, ScanOptions{Workers: 2}, features.Options{NGramDims: 256})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, stats, err := s.ScanBatchContext(ctx, scanInputs(5))
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(results) != 0 || stats.Files != 0 {
		t.Fatalf("pre-cancelled scan produced %d results, stats %+v", len(results), stats)
	}
}

// TestScanBatchContextComplete asserts the context path is byte-for-byte the
// plain ScanBatch on an uncancelled run.
func TestScanBatchContextComplete(t *testing.T) {
	s := tinyScanner(t, ScanOptions{Workers: 3}, features.Options{NGramDims: 256})
	inputs := scanInputs(12)
	got, stats, err := s.ScanBatchContext(context.Background(), inputs)
	if err != nil {
		t.Fatalf("err = %v", err)
	}
	if len(got) != len(inputs) || stats.Files != len(inputs) {
		t.Fatalf("got %d results, stats %+v", len(got), stats)
	}
	for i, r := range got {
		if r.Path != inputs[i].Path {
			t.Fatalf("result %d path = %q, want %q (input order)", i, r.Path, inputs[i].Path)
		}
		if r.Err != nil {
			t.Fatalf("result %d: %v", i, r.Err)
		}
	}
}
