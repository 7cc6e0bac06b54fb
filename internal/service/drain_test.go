package service

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// postResult is one asynchronous scan submission's outcome.
type postResult struct {
	status int
	body   []byte
	err    error
}

// asyncPost fires a raw-body scan in the background.
func asyncPost(url, src string) chan postResult {
	ch := make(chan postResult, 1)
	go func() {
		resp, err := http.Post(url+"/v1/scan", "application/javascript", strings.NewReader(src))
		if err != nil {
			ch <- postResult{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		ch <- postResult{status: resp.StatusCode, body: body, err: err}
	}()
	return ch
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for i := 0; i < 500; i++ {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// blockableServer builds a server whose single worker parks on the returned
// channel before each scan, so tests can hold jobs in flight deterministically.
func blockableServer(t *testing.T, cfg Config) (*Server, *httptest.Server, chan struct{}) {
	t.Helper()
	s := New(tinyScanner(t, core.ScanOptions{Workers: 1}), cfg)
	block := make(chan struct{})
	inner := s.scan
	s.scan = func(j *job) {
		<-block
		inner(j)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, block
}

// TestBackpressure429 pins the saturation path: with one worker held mid-scan
// and a one-slot queue already occupied, the next request must bounce with
// 429 and the configured Retry-After hint — and the queued work must still
// complete once the worker frees up.
func TestBackpressure429(t *testing.T) {
	swapObs(t)
	s, ts, block := blockableServer(t, Config{Concurrency: 1, QueueSize: 1, RetryAfter: 2 * time.Second})

	first := asyncPost(ts.URL, "var a = 1;")
	waitFor(t, "worker to pick up the first job", func() bool { return s.active.Load() == 1 })
	second := asyncPost(ts.URL, "var b = 2;")
	waitFor(t, "second job to queue", func() bool { return len(s.jobs) == 1 })

	// Queue full, worker busy: the third request must be pushed back, not
	// parked.
	resp, err := http.Post(ts.URL+"/v1/scan", "application/javascript", strings.NewReader("var c = 3;"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated status = %d, want 429 (body %s)", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Errorf("Retry-After = %q, want 2", got)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e.Error, "queue is full") {
		t.Errorf("429 body = %s", body)
	}

	// Release the worker: both held requests must complete normally.
	close(block)
	for name, ch := range map[string]chan postResult{"first": first, "second": second} {
		r := <-ch
		if r.err != nil || r.status != http.StatusOK {
			t.Errorf("%s request after release: status %d err %v", name, r.status, r.err)
		}
	}

	// The rejection is visible on the admin surface.
	aresp, err := http.Get(ts.URL + "/admin/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer aresp.Body.Close()
	var rep AdminReport
	if err := json.NewDecoder(aresp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Rejected != 1 || rep.Requests != 3 {
		t.Errorf("admin after saturation: %d requests / %d rejected, want 3/1", rep.Requests, rep.Rejected)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Errorf("drain: %v", err)
	}
}

// TestDrainRejectsNewWork: once the drain begins, scan submissions get 503
// (clients should fail over), while queued-and-in-flight work still finishes.
func TestDrainRejectsNewWork(t *testing.T) {
	swapObs(t)
	s, ts, block := blockableServer(t, Config{Concurrency: 1, QueueSize: 4})

	inflight := asyncPost(ts.URL, "var a = 1;")
	waitFor(t, "worker to pick up the job", func() bool { return s.active.Load() == 1 })

	drainErr := make(chan error, 1)
	go func() { drainErr <- s.Drain(context.Background()) }()
	waitFor(t, "drain to begin", func() bool { return s.Draining() })

	// New work is turned away while the old job is still running.
	resp, err := http.Post(ts.URL+"/v1/scan", "application/javascript", strings.NewReader("var b = 2;"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "draining") {
		t.Fatalf("scan during drain = %d %s, want 503 draining", resp.StatusCode, body)
	}

	// Drain must not have finished with a job in flight.
	select {
	case err := <-drainErr:
		t.Fatalf("drain returned (%v) with a job still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(block)
	if r := <-inflight; r.err != nil || r.status != http.StatusOK {
		t.Errorf("in-flight request during drain: status %d err %v", r.status, r.err)
	}
	if err := <-drainErr; err != nil {
		t.Errorf("drain: %v", err)
	}
	// Drain is idempotent: a second call returns immediately.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Errorf("second drain: %v", err)
	}
}

// TestDrainDeadline: a drain bounded by an already-tight context reports the
// context error instead of hanging on a stuck worker.
func TestDrainDeadline(t *testing.T) {
	swapObs(t)
	s, ts, block := blockableServer(t, Config{Concurrency: 1, QueueSize: 4})

	stuck := asyncPost(ts.URL, "var a = 1;")
	waitFor(t, "worker to pick up the job", func() bool { return s.active.Load() == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err != context.DeadlineExceeded {
		t.Errorf("drain with stuck worker = %v, want context.DeadlineExceeded", err)
	}

	// Unstick and finish the drain cleanly so nothing leaks out of the test.
	close(block)
	<-stuck
	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	if err := s.Drain(ctx2); err != nil {
		t.Errorf("final drain: %v", err)
	}
}

// TestDrainLeavesNoGoroutines runs a full lifecycle — start, traffic, drain —
// and verifies the goroutine count returns to its pre-server baseline: the
// worker pool, the scanner's per-job helpers, and the HTTP plumbing must all
// retire.
func TestDrainLeavesNoGoroutines(t *testing.T) {
	swapObs(t)
	before := runtime.NumGoroutine()

	s := New(tinyScanner(t, core.ScanOptions{Workers: 2}), Config{Concurrency: 2})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	for i := 0; i < 6; i++ {
		resp, body := postScript(t, ts.URL, "var a = 1; function f(x) { return x; } f(a);")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("scan %d: status %d body %s", i, resp.StatusCode, body)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	ts.Close()

	checkNoGoroutineLeak(t, before)
}
