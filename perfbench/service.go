package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/flow"
	"repro/internal/js/parser"
	"repro/internal/obs"
	"repro/internal/service"
)

// service: jsscand's handler on a loopback listener with the daemon's
// defaults (dedup on, ForceLevel2, triage off, obs enabled), driven from the
// same process over at most two keep-alive connections: a closed loop for
// capacity, sequential passes for latency, and (traced run) an open loop
// for queueing.

// nominalRate is the open-loop arrival rate of the traced run's queueing
// step, about a fifth of the service's capacity on a 2-CPU host.
const nominalRate = 660.0 // req/s

// serviceLatencyRequests is how many requests of the stream each latency
// pass sends.
const serviceLatencyRequests = 1536

func serviceScanOptions(workers int) core.ScanOptions {
	return core.ScanOptions{Workers: workers, ForceLevel2: true, Dedup: true}
}

// serving is one running service: the scan server and its HTTP front end
// on a loopback listener.
type serving struct {
	srv  *service.Server
	hs   *http.Server
	base string
	done chan struct{}
}

// startService builds the scanner and server and starts serving, the way
// jsscand starts.
func startService(l1, l2 *core.Detector, opts core.ScanOptions, cfg service.Config) (*serving, error) {
	sc, err := core.NewScanner(l1, l2, opts)
	if err != nil {
		return nil, err
	}
	srv := service.New(sc, cfg)
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain(context.Background())
		return nil, err
	}
	s := &serving{srv: srv, hs: &http.Server{Handler: srv.Handler()}, base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return s, nil
}

// stop shuts the listener down, waits for in-flight requests and drains
// the worker pool.
func (s *serving) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	<-s.done
	if derr := s.srv.Drain(ctx); err == nil {
		err = derr
	}
	return err
}

// admin fetches the server's /admin/metrics report.
func (s *serving) admin(cl *http.Client) (*service.AdminReport, error) {
	resp, err := cl.Get(s.base + "/admin/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var rep service.AdminReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return nil, fmt.Errorf("decode admin report: %w", err)
	}
	return &rep, nil
}

// newClient returns an HTTP client that keeps at most conns keep-alive
// connections to the service.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// svcLoad is the encoded request stream and what every response must say.
type svcLoad struct {
	pool   []corpus.File
	reqs   []encodedRequest
	expect []service.Report // per pool index, Path unset
	next   atomic.Int64     // the stream position, shared by every phase
}

type encodedRequest struct {
	files []int
	batch bool
	path  string // request URL path and query
	ctype string
	body  []byte
	bytes int // script bytes carried
}

func newSvcLoad(pool []corpus.File, reqs []serviceRequest, ref []core.FileResult) (*svcLoad, error) {
	l := &svcLoad{pool: pool, expect: make([]service.Report, len(ref))}
	for i := range ref {
		l.expect[i] = expectedReport(&ref[i])
	}
	for _, r := range reqs {
		er := encodedRequest{files: r.files, batch: r.batch}
		for _, i := range r.files {
			er.bytes += len(pool[i].Source)
		}
		if r.batch {
			var req service.ScanRequest
			for _, i := range r.files {
				req.Files = append(req.Files, service.ScanFile{Path: pool[i].Name, Source: pool[i].Source})
			}
			body, err := json.Marshal(req)
			if err != nil {
				return nil, err
			}
			er.path, er.ctype, er.body = "/v1/scan", "application/json", body
		} else {
			f := pool[r.files[0]]
			er.path = "/v1/scan?path=" + url.QueryEscape(f.Name)
			er.ctype, er.body = "application/javascript", []byte(f.Source)
		}
		l.reqs = append(l.reqs, er)
	}
	return l, nil
}

// expectedReport renders a direct scan's verdict the way the service's
// default configuration reports it.
func expectedReport(r *core.FileResult) service.Report {
	rep := service.Report{Bypassed: r.Bypassed}
	if r.Err != nil {
		rep.Error = r.Err.Error()
		return rep
	}
	rep.Transformed = r.Level1.IsTransformed()
	rep.Regular, rep.Minified, rep.Obfuscated = r.Level1.Regular, r.Level1.Minified, r.Level1.Obfuscated
	if r.Level2 != nil {
		rep.Probabilities = make(map[string]float64, len(r.Level2.Ranked))
		for _, p := range r.Level2.Ranked {
			rep.Probabilities[p.Technique.String()] = p.Probability
		}
		for _, p := range r.Level2.TopK(service.DefaultTopK, core.DefaultThreshold) {
			rep.Techniques = append(rep.Techniques, service.TechniqueReport{Technique: p.Technique.String(), Probability: p.Probability})
		}
	}
	return rep
}

// send posts request k and returns its status and body.
func (l *svcLoad) send(ctx context.Context, cl *http.Client, base string, k int) (int, []byte, error) {
	r := &l.reqs[k]
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+r.path, bytes.NewReader(r.body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", r.ctype)
	resp, err := cl.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// verify checks one response against the direct-scan verdicts: a non-200
// answer or transport error is a failure, a wrong verdict a mismatch.
func (l *svcLoad) verify(o *outcome, k, status int, body []byte, err error) {
	r := &l.reqs[k]
	if err != nil || status != http.StatusOK {
		o.fail()
		return
	}
	match := func(got service.Report, i int) bool {
		want := l.expect[i]
		want.Path = l.pool[i].Name
		got.Deduped = false // provenance, not verdict
		return reflect.DeepEqual(got, want)
	}
	if !r.batch {
		var got service.Report
		err := json.Unmarshal(body, &got)
		o.check(err == nil && match(got, r.files[0]), "service: raw request %d answered %s", k, body)
		return
	}
	var got service.BatchResponse
	if err := json.Unmarshal(body, &got); err != nil || got.Error != "" || got.Stats.Truncated || len(got.Results) != len(r.files) {
		o.check(false, "service: batch request %d answered %.300s", k, body)
		return
	}
	for j, i := range r.files {
		o.check(match(got.Results[j], i), "service: batch request %d file %s answered %+v", k, l.pool[i].Name, got.Results[j])
	}
}

// reply is one response, kept for checking after the timed window.
type reply struct {
	k, status int
	body      []byte
	err       error
}

// closedLoopPhase sends the stream back to back over two connections for
// dur, in capacityWindows consecutive windows, and returns the work it
// carried and its run seconds. Responses are checked after each window,
// outside its timing; each window closes a heap lap.
func (l *svcLoad) closedLoopPhase(o *outcome, cl *http.Client, base string, dur time.Duration, heap *heapSampler) (w loopWork) {
	for range capacityWindows {
		replies := make([][]reply, workers)
		deadline := time.Now().Add(dur / capacityWindows)
		watch := startWatch()
		var wg sync.WaitGroup
		for c := range replies {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(deadline) {
					k := int(l.next.Add(1)-1) % len(l.reqs)
					status, body, err := l.send(context.Background(), cl, base, k)
					replies[c] = append(replies[c], reply{k, status, body, err})
				}
			}()
		}
		wg.Wait()
		w.secs += watch.seconds()
		if heap != nil {
			heap.lap()
		}
		for _, rs := range replies {
			for _, r := range rs {
				l.verify(o, r.k, r.status, r.body, r.err)
				w.files += len(l.reqs[r.k].files)
				w.bytes += l.reqs[r.k].bytes
				w.reqs++
			}
		}
	}
	return w
}

// loopWork is what a closed-loop phase carried in its run seconds.
type loopWork struct {
	files, bytes, reqs int
	secs               float64
}

// capacityWindows splits a closed-loop phase into windows, each checked
// after it ends and each a heap lap.
const capacityWindows = 6

// latencyPasses measures request latency: each pass starts a fresh
// service, so every pass meets the same dedup cache states, and sends the
// first serviceLatencyRequests requests of the stream one at a time over
// one keep-alive connection. Passes repeat for dur (at least two); a
// request's latency is its median over the passes (see sweeps).
func (l *svcLoad) latencyPasses(o *outcome, l1, l2 *core.Detector, dur time.Duration, heap *heapSampler) (*sweeps, error) {
	var sw sweeps
	cl := newClient(1)
	defer cl.CloseIdleConnections()
	for deadline, passes := time.Now().Add(dur), 0; passes < 2 || time.Now().Before(deadline); passes++ {
		s, err := startService(l1, l2, serviceScanOptions(workers), serviceConfig())
		if err != nil {
			return nil, err
		}
		lat := make([]float64, serviceLatencyRequests)
		watch := startWatch()
		for k := range lat {
			t0 := time.Now()
			status, body, err := l.send(context.Background(), cl, s.base, k)
			lat[k] = ms(time.Since(t0))
			l.verify(o, k, status, body, err)
		}
		run, wall := watch.split()
		inRunTime(lat, run, wall)
		sw.add(lat, run)
		heap.lap()
		cl.CloseIdleConnections()
		if err := s.stop(); err != nil {
			return nil, fmt.Errorf("stop service: %w", err)
		}
	}
	return &sw, nil
}

// stepGrace bounds how long an open-loop step waits for its backlog after
// the last arrival before abandoning the rest; every abandoned request
// counts as a failure (a timeout).
const stepGrace = 2 * time.Second

// openLoop sends Poisson arrivals at rate for dur: the calling goroutine is
// the generator, and two sender goroutines, one per keep-alive connection,
// take due requests in order, checking every response. It returns how late
// the generator sent each request, in ms.
func (l *svcLoad) openLoop(o *outcome, cl *http.Client, base string, rate float64, dur time.Duration, rng *rand.Rand) []float64 {
	var offsets []time.Duration
	for t := 0.0; ; {
		t += rng.ExpFloat64() / rate
		if t >= dur.Seconds() {
			break
		}
		offsets = append(offsets, time.Duration(t*float64(time.Second)))
	}
	// Buffered to the number of arrivals, so the generator never blocks on
	// slow senders: an open loop queues instead.
	queue := make(chan int, len(offsets))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range queue {
				if ctx.Err() != nil {
					o.fail() // abandoned after the grace period: a timeout
					continue
				}
				status, body, err := l.send(ctx, cl, base, k)
				if ctx.Err() != nil {
					o.fail() // cancelled in flight: a timeout
					continue
				}
				l.verify(o, k, status, body, err)
			}
		}()
	}
	start := time.Now()
	lags := make([]float64, 0, len(offsets))
	for _, off := range offsets {
		due := start.Add(off)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		lags = append(lags, ms(time.Since(due)))
		queue <- int(l.next.Add(1)-1) % len(l.reqs)
	}
	close(queue)
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(stepGrace):
		cancel()
		<-done
	}
	return lags
}

func serviceConfig() service.Config { return service.Config{Concurrency: workers} }

func runService(e *env, traced bool) (*outcome, error) {
	o := newOutcome()
	if !traced {
		setup, err := timeSetup(func() (func(), error) {
			l1, l2, err := loadModels(e.models)
			if err != nil {
				return nil, err
			}
			s, err := startService(l1, l2, serviceScanOptions(workers), serviceConfig())
			if err != nil {
				return nil, err
			}
			return func() { s.stop() }, nil
		})
		if err != nil {
			return nil, err
		}
		o.metrics["setup_s"] = setup
	}
	pool, reqs, err := serviceInputs(e.seed)
	if err != nil {
		return nil, err
	}
	l1, l2, err := loadModels(e.models)
	if err != nil {
		return nil, err
	}
	// The reference: a direct ScanBatch of every pooled script with the
	// service's scan options, without the dedup cache.
	refScanner, err := core.NewScanner(l1, l2, core.ScanOptions{Workers: workers, ForceLevel2: true})
	if err != nil {
		return nil, err
	}
	ref, _ := refScanner.ScanBatch(toInputs(pool))
	load, err := newSvcLoad(pool, reqs, ref)
	if err != nil {
		return nil, err
	}
	scoreAccuracy(o, pool, ref)
	// jsscand runs with the obs registry on for its whole lifetime.
	prev := obs.Swap(obs.NewRegistry())
	defer obs.Swap(prev)
	if traced {
		return traceService(e, o, l1, l2, load, ref)
	}

	s, err := startService(l1, l2, serviceScanOptions(workers), serviceConfig())
	if err != nil {
		return nil, err
	}
	cl := newClient(workers)
	defer cl.CloseIdleConnections()
	load.closedLoopPhase(o, cl, s.base, time.Second, nil) // warm-up, untimed

	heap := startHeapSampler()
	// Capacity: the stream back to back over two connections.
	capacity := load.closedLoopPhase(o, cl, s.base, e.budget/4, heap)
	o.metrics["files_per_s"] = float64(capacity.files) / capacity.secs
	o.metrics["mb_per_s"] = float64(capacity.bytes) / 1e6 / capacity.secs

	// Restart: a new scanner (cold dedup cache) and server, then capacity
	// again; the restart's time counts with it. The restart takes a few
	// milliseconds, under one tick of the steal counter, so it is timed in
	// plain wall time.
	t0 := time.Now()
	if err := s.stop(); err != nil {
		return nil, fmt.Errorf("stop service: %w", err)
	}
	cl.CloseIdleConnections()
	if s, err = startService(l1, l2, serviceScanOptions(workers), serviceConfig()); err != nil {
		return nil, err
	}
	restart := time.Since(t0).Seconds()
	re := load.closedLoopPhase(o, cl, s.base, e.budget/4, heap)
	o.metrics["recrawl_files_per_s"] = float64(re.files) / (restart + re.secs)
	cl.CloseIdleConnections()
	if err := s.stop(); err != nil {
		return nil, fmt.Errorf("stop service: %w", err)
	}

	sw, err := load.latencyPasses(o, l1, l2, e.budget*2/5, heap)
	if err != nil {
		return nil, err
	}
	sw.report(o)
	o.metrics["max_rps"] = float64(capacity.reqs) / capacity.secs
	o.metrics["peak_heap_mb"] = heap.stopMB()
	return o, nil
}

// serviceTraceRequests is how many requests of the stream the traced run
// replays.
const serviceTraceRequests = 4096

func traceService(e *env, o *outcome, l1, l2 *core.Detector, load *svcLoad, ref []core.FileResult) (*outcome, error) {
	ctx := context.Background()
	cl := newClient(1)
	defer cl.CloseIdleConnections()
	// sequential sends requests one at a time over one connection and
	// checks each answer; it returns the wall without the checking.
	sequential := func(base string) time.Duration {
		var checking time.Duration
		t0 := time.Now()
		for k := 0; k < serviceTraceRequests; k++ {
			status, body, err := load.send(ctx, cl, base, k)
			t := time.Now()
			load.verify(o, k, status, body, err)
			checking += time.Since(t)
		}
		return time.Since(t0) - checking
	}

	// Untraced: jsscand's defaults at one worker, the stream sent
	// sequentially on a fresh service. The first run collects the exact
	// counts in a fresh registry and the per-stage table; later runs pair
	// with the replay's passes.
	var stages []core.StageStats
	untraced := func() (time.Duration, error) {
		s, err := startService(l1, l2, serviceScanOptions(1), service.Config{Concurrency: 1})
		if err != nil {
			return 0, err
		}
		wall := sequential(s.base)
		rep, err := s.admin(cl)
		if err == nil {
			stages = rep.Stages
		}
		if serr := s.stop(); err == nil {
			err = serr
		}
		return wall, err
	}
	var counted time.Duration
	var runErr error
	reg := counters(func() { counted, runErr = untraced() })
	if runErr != nil {
		return nil, runErr
	}
	layerCounts(o, reg)
	var stageSum time.Duration
	for _, s := range stages {
		stageSum += s.Duration
	}
	o.metrics["core.unattributed_ms"] = ms(counted - stageSum)

	// The traced replay scans each request's files through the layers, then
	// makes the request's HTTP round trip to a server that already holds
	// every verdict in its dedup cache, so the round trip times the
	// service's own work: decode, queue, cache lookup, encode, transport.
	warmOpts := serviceScanOptions(1)
	warmOpts.DedupCapacity = len(load.pool) + 1
	ts, err := startService(l1, l2, warmOpts, service.Config{Concurrency: 1})
	if err != nil {
		return nil, err
	}
	defer ts.stop()
	sequential(ts.base)

	inputs := toInputs(load.pool)
	var replayed []int // pool index of every replayed file, in order
	lexEst := lexEstimates(inputs)
	best, wall, overhead, r, err := replayPasses(e, "service", 12*serviceTraceRequests, untraced, func(tr *tracer) (*replayer, []core.FileResult, error) {
		r := newReplayer(l1, l2, serviceScanOptions(1), nil, lexEst, tr)
		var out []core.FileResult
		replayed = replayed[:0]
		var checking time.Duration
		for k := 0; k < serviceTraceRequests; k++ {
			// Each request is its own ScanBatch call in the service, and a
			// ScanBatch call scans on a fresh worker goroutine (whose stack
			// the recursive parser grows again) with fresh parser and flow
			// sessions; the replay does the same.
			// The goroutine's start and hand-back are the worker pool's
			// cost: a core span covers what the layer spans inside leave.
			r.ps, r.fs = parser.NewSession(), flow.NewSession()
			before, t0 := tr.total(), time.Now()
			done := make(chan struct{})
			go func() {
				defer close(done)
				for _, i := range load.reqs[k].files {
					out = append(out, r.scan(k, i, inputs[i]))
					replayed = append(replayed, i)
				}
			}()
			<-done
			tr.add(k, layerCore, -1, t0, time.Since(t0)-(tr.total()-before))
			t := time.Now()
			status, body, err := load.send(ctx, cl, ts.base, k)
			tr.record(k, layerService, t)
			t = time.Now()
			load.verify(o, k, status, body, err)
			checking += time.Since(t)
		}
		tr.excluded += checking
		return r, out, nil
	}, func(res []core.FileResult) {
		for j, i := range replayed {
			o.check(sameVerdict(&res[j], &ref[i]), "service replay: %s differs from the direct scan", ref[i].Path)
		}
	})
	if err != nil {
		return nil, err
	}
	checkReplayCounts(o, r, reg)
	o.metrics["parser.nodes"] = float64(r.nodes)
	var trips []float64
	for _, s := range best.spans {
		if s.layer == layerService {
			trips = append(trips, float64(s.dur)/1e6)
		}
	}
	o.metrics["service.overhead_p50_ms"] = median(trips)
	ledger(o, "service", best, wall, overhead, stages)

	// Queueing under load: the nominal open-loop step against the default
	// two-worker service.
	cl2 := newClient(workers)
	defer cl2.CloseIdleConnections()
	var lags []float64
	reg = counters(func() {
		s, err := startService(l1, l2, serviceScanOptions(workers), serviceConfig())
		if err != nil {
			runErr = err
			return
		}
		lags = load.openLoop(o, cl2, s.base, nominalRate, e.budget/4, rngFor(e.seed, saltService+1))
		runErr = s.stop()
	})
	if runErr != nil {
		return nil, runErr
	}
	wait := reg.Histogram("service.queue.wait", obs.UnitNanoseconds).Snapshot()
	o.metrics["service.queue_wait_p99_ms"] = float64(wait.Quantile(0.99)) / 1e6
	o.metrics["service.rejects"] = count(reg, "service.rejects")
	o.metrics["gen.lag_p99_ms"] = quantile(lags, 0.99)
	unsetMetrics(o, "store.open_ms", "store.entries", "store.log_mb")
	return o, nil
}
