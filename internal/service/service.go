// Package service is the long-running scan daemon behind cmd/jsscand: an
// HTTP/JSON front end over the batch scan engine, shaped for crawl-scale
// traffic the way the paper's detector is meant to run in the wild. Models
// are loaded once at startup and immutable afterwards; every request flows
// through a worker pool over a bounded job queue, so a traffic burst turns
// into 429 backpressure instead of unbounded goroutines; the scanner's
// content-hash dedup LRU is shared across all requests; and shutdown is a
// graceful drain — stop accepting, finish queued work, flush metrics — built
// on the same ScanBatchContext cancellation machinery the CLI uses.
//
// Endpoints:
//
//	POST /v1/scan       single script body or JSON batch -> verdicts
//	GET  /healthz       liveness (503 while draining)
//	GET  /admin/metrics obs registry dump, per-stage totals, queue + cache
package service

import (
	"context"
	"io"
	"log"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// Config sizes the service.
type Config struct {
	// Concurrency is the number of scan jobs processed at once (the worker
	// pool size over the job queue); <= 0 means GOMAXPROCS. Each job's scan
	// additionally parallelizes per the scanner's own ScanOptions.Workers.
	Concurrency int
	// QueueSize bounds the number of accepted-but-not-started jobs; when the
	// queue is full new scan requests are rejected with 429 and a
	// Retry-After hint. <= 0 means DefaultQueueSize.
	QueueSize int
	// MaxRequestBytes bounds one request body; larger submissions get 413.
	// <= 0 means DefaultMaxRequestBytes.
	MaxRequestBytes int64
	// RequestTimeout is the per-request scan budget: a batch still running
	// when it expires is cut short (the response carries the contiguous
	// prefix that finished, marked truncated). <= 0 means
	// DefaultRequestTimeout.
	RequestTimeout time.Duration
	// RetryAfter is the hint sent with 429 rejections; <= 0 means
	// DefaultRetryAfter.
	RetryAfter time.Duration
	// Log receives one structured line per request; nil discards.
	Log *log.Logger
}

// Defaults for the zero Config.
const (
	DefaultQueueSize       = 64
	DefaultMaxRequestBytes = 8 << 20
	DefaultRequestTimeout  = 30 * time.Second
	DefaultRetryAfter      = time.Second
	// DefaultTopK is how many techniques a report lists (the paper's top-k,
	// with core.DefaultThreshold as the confidence floor).
	DefaultTopK = 4
)

func (c Config) concurrency() int {
	if c.Concurrency <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Concurrency
}

func (c Config) queueSize() int {
	if c.QueueSize <= 0 {
		return DefaultQueueSize
	}
	return c.QueueSize
}

func (c Config) maxRequestBytes() int64 {
	if c.MaxRequestBytes <= 0 {
		return DefaultMaxRequestBytes
	}
	return c.MaxRequestBytes
}

func (c Config) requestTimeout() time.Duration {
	if c.RequestTimeout <= 0 {
		return DefaultRequestTimeout
	}
	return c.RequestTimeout
}

func (c Config) retryAfter() time.Duration {
	if c.RetryAfter <= 0 {
		return DefaultRetryAfter
	}
	return c.RetryAfter
}

func (c Config) logger() *log.Logger {
	if c.Log != nil {
		return c.Log
	}
	return log.New(io.Discard, "", 0)
}

// job is one accepted scan request on its way through the queue. The handler
// that created it blocks on done; the worker that picks it up publishes the
// results before closing done, so the fields are never accessed
// concurrently.
type job struct {
	ctx      context.Context
	inputs   []core.Input
	enqueued time.Time

	results []core.FileResult
	stats   core.ScanStats
	err     error
	done    chan struct{}
}

// Server is the scan service. Create it with New, start the worker pool with
// Start, expose Handler over any HTTP listener (or let Serve run the whole
// lifecycle), and stop with Drain.
type Server struct {
	scanner *core.Scanner
	cfg     Config
	log     *log.Logger
	start   time.Time

	jobs chan *job
	// drainMu serializes enqueue against Drain's close(jobs): enqueuers
	// hold the read side around the non-blocking send, so the channel can
	// never be closed mid-send.
	drainMu  sync.RWMutex
	draining atomic.Bool
	workers  sync.WaitGroup

	// active counts jobs currently being scanned (admin surface, and the
	// deterministic hook the backpressure tests synchronize on).
	active atomic.Int64
	// requests/rejected/scanned mirror the service.* obs counters for the
	// admin endpoint, which must work even when no registry is installed.
	requests  atomic.Int64
	rejected  atomic.Int64
	scanned   atomic.Int64
	deduped   atomic.Int64
	bypassed  atomic.Int64
	storeHits atomic.Int64

	// stageMu guards the cumulative per-stage breakdown folded in from
	// every scan's ScanStats.Stages.
	stageMu sync.Mutex
	stages  []core.StageStats

	// scan runs one job; swapped out by tests that need a controllable
	// worker.
	scan func(*job)
}

// New builds a Server around an already-validated Scanner (NewScanner has
// checked model labels and feature-layout agreement; LoadLevelFile has
// checked the v2 fingerprints). The scanner is shared by every request, so
// its dedup cache — when enabled — is the service-wide verdict cache.
func New(scanner *core.Scanner, cfg Config) *Server {
	s := &Server{
		scanner: scanner,
		cfg:     cfg,
		log:     cfg.logger(),
		start:   time.Now(),
		jobs:    make(chan *job, cfg.queueSize()),
	}
	s.scan = s.runScan
	return s
}

// Start launches the worker pool. Call once, before serving traffic.
func (s *Server) Start() {
	for i := 0; i < s.cfg.concurrency(); i++ {
		s.workers.Add(1)
		go func() {
			defer s.workers.Done()
			for j := range s.jobs {
				obs.ObserveDuration("service.queue.wait", time.Since(j.enqueued))
				s.active.Add(1)
				s.scan(j)
				s.active.Add(-1)
				close(j.done)
			}
		}()
	}
}

// runScan executes one job on the shared scanner and folds its stats into
// the service aggregates.
func (s *Server) runScan(j *job) {
	j.results, j.stats, j.err = s.scanner.ScanBatchContext(j.ctx, j.inputs)
	s.scanned.Add(int64(j.stats.Files))
	s.deduped.Add(int64(j.stats.Deduped))
	s.bypassed.Add(int64(j.stats.Bypassed))
	s.storeHits.Add(int64(j.stats.StoreHits))
	s.foldStages(j.stats.Stages)
}

// foldStages merges one scan's per-stage breakdown into the service-lifetime
// totals served on the admin endpoint. Stage order follows the pipeline, so
// merging by first appearance preserves it.
func (s *Server) foldStages(stages []core.StageStats) {
	if len(stages) == 0 {
		return
	}
	s.stageMu.Lock()
	defer s.stageMu.Unlock()
merge:
	for _, st := range stages {
		for i := range s.stages {
			if s.stages[i].Stage == st.Stage {
				s.stages[i].Duration += st.Duration
				s.stages[i].Files += st.Files
				s.stages[i].Bytes += st.Bytes
				continue merge
			}
		}
		s.stages = append(s.stages, st)
	}
}

// enqueueResult says what happened to an enqueue attempt.
type enqueueResult int

const (
	enqueued enqueueResult = iota
	queueFull
	drainingNow
)

// enqueue offers j to the queue without blocking: a full queue is the
// backpressure signal, not a place to park goroutines.
func (s *Server) enqueue(j *job) enqueueResult {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	if s.draining.Load() {
		return drainingNow
	}
	obs.Observe("service.queue.depth", obs.UnitCount, int64(len(s.jobs)))
	select {
	case s.jobs <- j:
		return enqueued
	default:
		return queueFull
	}
}

// Draining reports whether the server has begun its shutdown drain.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain gracefully stops the service: new scan requests are rejected with
// 503, queued and in-flight jobs run to completion (each bounded by its own
// request timeout), the worker pool exits, and a final summary line is
// flushed to the log. It returns ctx.Err when ctx expires before the pool
// drains, nil otherwise. Drain is idempotent; concurrent calls all wait.
func (s *Server) Drain(ctx context.Context) error {
	s.drainMu.Lock()
	if !s.draining.Swap(true) {
		close(s.jobs)
	}
	s.drainMu.Unlock()

	done := make(chan struct{})
	go func() {
		defer close(done)
		s.workers.Wait()
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}
	s.log.Printf("event=drained uptime=%s requests=%d rejected=%d files=%d deduped=%d bypassed=%d storehits=%d",
		time.Since(s.start).Round(time.Millisecond),
		s.requests.Load(), s.rejected.Load(), s.scanned.Load(), s.deduped.Load(),
		s.bypassed.Load(), s.storeHits.Load())
	return nil
}

// Serve runs the full service lifecycle on ln: workers start, the HTTP
// front end serves until ctx is cancelled, then the listener shuts down
// gracefully (in-flight handlers finish) and the queue drains. gracePeriod
// bounds the whole shutdown. The error is the listener failure when serving
// stopped on its own, or the shutdown/drain error when ctx ended the run.
func (s *Server) Serve(ctx context.Context, ln net.Listener, gracePeriod time.Duration) error {
	s.Start()
	srv := &http.Server{Handler: s.Handler()}
	var serveErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		serveErr = srv.Serve(ln)
	}()
	select {
	case <-done:
		// The listener failed on its own; drain whatever was accepted.
		drainCtx, cancel := context.WithTimeout(context.Background(), gracePeriod)
		defer cancel()
		s.Drain(drainCtx)
		return serveErr
	case <-ctx.Done():
	}
	stopCtx, cancel := context.WithTimeout(context.Background(), gracePeriod)
	defer cancel()
	// Shutdown closes the listener and waits for in-flight handlers — whose
	// jobs the still-running workers are completing — then Drain retires the
	// pool itself.
	shutdownErr := srv.Shutdown(stopCtx)
	<-done
	if err := s.Drain(stopCtx); err != nil {
		return err
	}
	return shutdownErr
}
