package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/transform"
)

// quantile returns the q-quantile of xs by linear interpolation between the
// closest ranks (the same rule as numpy's default). xs need not be sorted;
// it is not modified. An empty sample yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// heapSampler tracks the peak live heap — the heap still reachable at the
// end of each GC cycle — while it runs, sampled from runtime/metrics, which
// reads without stopping the world. The run's peak_heap_mb is the median
// over laps (passes or sweeps) of each lap's peak: a single maximum would
// hang on whether one GC happened to land while the two largest files were
// both in flight.
type heapSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	peak atomic.Uint64 // since the last lap
	laps []float64
}

const liveHeapMetric = "/gc/heap/live:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		sample := []metrics.Sample{{Name: liveHeapMetric}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			v := sample[0].Value.Uint64()
			for old := h.peak.Load(); v > old && !h.peak.CompareAndSwap(old, v); old = h.peak.Load() {
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// lap closes a lap, recording its peak.
func (h *heapSampler) lap() {
	h.laps = append(h.laps, float64(h.peak.Swap(0))/1e6)
}

// stopMB stops the sampler and returns the median lap peak in MB.
func (h *heapSampler) stopMB() float64 {
	close(h.stop)
	h.done.Wait()
	if len(h.laps) == 0 {
		h.lap()
	}
	return median(h.laps)
}

// Generator labels ------------------------------------------------------------

// l1Class is a level-1 class index in core.Level1Labels order.
type l1Class int

const (
	classRegular l1Class = iota
	classMinified
	classObfuscated
)

// trueClass is the generator's level-1 label: obfuscation wins over
// minification when a file carries both.
func trueClass(f *corpus.File) l1Class {
	switch {
	case f.Obfuscated():
		return classObfuscated
	case f.Minified():
		return classMinified
	}
	return classRegular
}

// predictedClass applies the same precedence to a verdict at the paper's
// 0.5 threshold.
func predictedClass(r core.Level1Result) l1Class {
	switch {
	case r.IsObfuscated():
		return classObfuscated
	case r.IsMinified():
		return classMinified
	}
	return classRegular
}

// reportTopK and the confidence floor match what jsdetect and jsscand
// report by default.
const reportTopK = 4

// reported lists the techniques a verdict reports (top-k over the floor).
func reported(l2 *core.Level2Result) []transform.Technique {
	if l2 == nil {
		return nil
	}
	var out []transform.Technique
	for _, p := range l2.TopK(reportTopK, core.DefaultThreshold) {
		out = append(out, p.Technique)
	}
	return out
}

// accuracy accumulates the level-1 accuracy and the level-2 micro-F1 of
// reported techniques against the generator's labels.
type accuracy struct {
	files, l1Correct int
	tp, fp, fn       int
}

// add scores one verdict. A file that errored scores as wrong at level 1
// and as reporting nothing at level 2.
func (a *accuracy) add(f *corpus.File, r *core.FileResult) {
	a.files++
	if r.Err == nil && predictedClass(r.Level1) == trueClass(f) {
		a.l1Correct++
	}
	truth := core.Level2LabelRow(f)
	got := make([]bool, len(transform.Techniques))
	if r.Err == nil {
		for _, t := range reported(r.Level2) {
			got[int(t)-int(transform.Techniques[0])] = true
		}
	}
	for i := range truth {
		switch {
		case truth[i] && got[i]:
			a.tp++
		case got[i]:
			a.fp++
		case truth[i]:
			a.fn++
		}
	}
}

func (a *accuracy) l1() float64 {
	if a.files == 0 {
		return 0
	}
	return float64(a.l1Correct) / float64(a.files)
}

func (a *accuracy) f1() float64 {
	if 2*a.tp+a.fp+a.fn == 0 {
		return 0
	}
	return 2 * float64(a.tp) / float64(2*a.tp+a.fp+a.fn)
}
