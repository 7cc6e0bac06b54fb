package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/store"
)

// ScanRequest is the JSON batch form of POST /v1/scan. A request whose
// Content-Type is not application/json is instead treated as one raw script
// body (path taken from the ?path= query, defaulting to "body.js").
type ScanRequest struct {
	// Files are the scripts to classify, answered in input order.
	Files []ScanFile `json:"files"`
	// Explain attaches static indicator diagnostics to each verdict; it
	// only has an effect when the daemon runs with -explain (a scanner that
	// skips the rules reports none).
	Explain bool `json:"explain,omitempty"`
}

// ScanFile is one script in a batch submission.
type ScanFile struct {
	Path   string `json:"path"`
	Source string `json:"source"`
}

// Report is the verdict on one script.
type Report struct {
	Path        string  `json:"path"`
	Transformed bool    `json:"transformed"`
	Regular     float64 `json:"regular"`
	Minified    float64 `json:"minified"`
	Obfuscated  float64 `json:"obfuscated"`
	// Probabilities maps every monitored technique to its predicted
	// probability; present whenever level 2 ran (always, when the daemon
	// scans with ForceLevel2).
	Probabilities map[string]float64 `json:"probabilities,omitempty"`
	// Techniques is the top-k ranking over the confidence floor.
	Techniques []TechniqueReport `json:"techniques,omitempty"`
	// Diagnostics carries the static indicator findings when the request
	// asked for explain and the daemon collects them.
	Diagnostics []analysis.Diagnostic `json:"diagnostics,omitempty"`
	// Deduped marks a verdict replayed from the shared content-hash cache.
	Deduped bool `json:"deduped,omitempty"`
	// Bypassed marks a verdict the stage-0 triage router synthesized
	// without the full pipeline (daemon running with -triage). It is part
	// of the verdict — a store or cache replay of a bypassed verdict reports
	// it identically — so responses stay byte-stable across daemon restarts.
	Bypassed bool `json:"bypassed,omitempty"`
	// Error is the per-file failure (typically a parse error); the
	// classification fields are zero when set.
	Error string `json:"error,omitempty"`
}

// TechniqueReport is one ranked technique in a Report.
type TechniqueReport struct {
	Technique   string  `json:"technique"`
	Probability float64 `json:"probability"`
}

// BatchResponse is the envelope of a JSON batch scan.
type BatchResponse struct {
	Results []Report   `json:"results"`
	Stats   BatchStats `json:"stats"`
	// Error is set when the scan was cut short (per-request timeout or a
	// client disconnect); Results then holds the contiguous input-ordered
	// prefix that finished before the cut.
	Error string `json:"error,omitempty"`
}

// BatchStats aggregates one batch scan.
type BatchStats struct {
	Files         int   `json:"files"`
	Bytes         int64 `json:"bytes"`
	ParseFailures int   `json:"parseFailures"`
	Transformed   int   `json:"transformed"`
	Deduped       int   `json:"deduped"`
	// Bypassed counts verdicts the triage router synthesized. StoreHits is
	// deliberately NOT part of the response: whether a verdict came from
	// disk or was computed is provenance, and responses must be identical
	// across a daemon restart against a warm store. Store traffic shows on
	// /admin/metrics instead.
	Bypassed   int   `json:"bypassed"`
	DurationNs int64 `json:"durationNs"`
	// Truncated marks a batch the per-request timeout cut short: Results
	// is the contiguous prefix that finished.
	Truncated bool `json:"truncated,omitempty"`
}

// errorResponse is the JSON body of every non-2xx answer.
type errorResponse struct {
	Error string `json:"error"`
}

// Handler returns the service's HTTP front end.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/scan", s.handleScan)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/admin/metrics", s.handleAdmin)
	return mux
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// handleScan is POST /v1/scan: parse, enqueue (or push back), wait, render.
func (s *Server) handleScan(w http.ResponseWriter, r *http.Request) {
	started := time.Now()
	stop := obs.Time("service.request.duration")
	defer stop()
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "use POST"})
		return
	}
	obs.Add("service.requests", 1)
	s.requests.Add(1)

	inputs, explain, single, reqErr := s.parseScanRequest(w, r)
	if reqErr != nil {
		s.logRequest(r, reqErr.status, started, nil, core.ScanStats{})
		writeJSON(w, reqErr.status, errorResponse{Error: reqErr.msg})
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.requestTimeout())
	defer cancel()
	j := &job{ctx: ctx, inputs: inputs, enqueued: time.Now(), done: make(chan struct{})}
	switch s.enqueue(j) {
	case drainingNow:
		s.logRequest(r, http.StatusServiceUnavailable, started, nil, core.ScanStats{})
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "service is draining"})
		return
	case queueFull:
		obs.Add("service.rejects", 1)
		s.rejected.Add(1)
		retry := int(s.cfg.retryAfter() / time.Second)
		if retry < 1 {
			retry = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		s.logRequest(r, http.StatusTooManyRequests, started, nil, core.ScanStats{})
		writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: "scan queue is full, retry later"})
		return
	}
	// The worker publishes results then closes done; the job's context is
	// derived from the request's, so a client disconnect or timeout unblocks
	// this promptly via the scan's own cancellation.
	<-j.done

	if single {
		s.renderSingle(w, r, j, explain, started)
		return
	}
	resp := BatchResponse{
		Results: make([]Report, 0, len(j.results)),
		Stats: BatchStats{
			Files:         j.stats.Files,
			Bytes:         j.stats.Bytes,
			ParseFailures: j.stats.ParseFailures,
			Transformed:   j.stats.Transformed,
			Deduped:       j.stats.Deduped,
			Bypassed:      j.stats.Bypassed,
			DurationNs:    int64(j.stats.Duration),
			Truncated:     j.err != nil,
		},
	}
	if j.err != nil {
		resp.Error = fmt.Sprintf("scan cut short: %v", j.err)
	}
	for i := range j.results {
		resp.Results = append(resp.Results, buildReport(&j.results[i], explain))
	}
	s.logRequest(r, http.StatusOK, started, j.results, j.stats)
	writeJSON(w, http.StatusOK, resp)
}

// renderSingle answers the raw-script form: one Report object, or 504 when
// the scan budget expired before the verdict.
func (s *Server) renderSingle(w http.ResponseWriter, r *http.Request, j *job, explain bool, started time.Time) {
	if j.err != nil && len(j.results) == 0 {
		s.logRequest(r, http.StatusGatewayTimeout, started, nil, j.stats)
		writeJSON(w, http.StatusGatewayTimeout, errorResponse{Error: fmt.Sprintf("scan cut short: %v", j.err)})
		return
	}
	if len(j.results) != 1 {
		s.logRequest(r, http.StatusInternalServerError, started, j.results, j.stats)
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: fmt.Sprintf("scan returned %d results for one script", len(j.results))})
		return
	}
	s.logRequest(r, http.StatusOK, started, j.results, j.stats)
	writeJSON(w, http.StatusOK, buildReport(&j.results[0], explain))
}

// requestError is a malformed-request verdict with its HTTP status.
type requestError struct {
	status int
	msg    string
}

func (e *requestError) Error() string { return e.msg }

// parseScanRequest turns the request body into scan inputs. JSON bodies are
// batches; anything else is one raw script. single reports which form the
// response must take.
func (s *Server) parseScanRequest(w http.ResponseWriter, r *http.Request) (inputs []core.Input, explain, single bool, reqErr *requestError) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.maxRequestBytes())
	body, err := io.ReadAll(r.Body)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return nil, false, false, &requestError{http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit)}
		}
		return nil, false, false, &requestError{http.StatusBadRequest, fmt.Sprintf("read body: %v", err)}
	}
	ct, _, _ := strings.Cut(r.Header.Get("Content-Type"), ";")
	if strings.TrimSpace(ct) == "application/json" {
		var req ScanRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return nil, false, false, &requestError{http.StatusBadRequest, fmt.Sprintf("malformed JSON request: %v", err)}
		}
		if len(req.Files) == 0 {
			return nil, false, false, &requestError{http.StatusBadRequest, "request has no files"}
		}
		inputs = make([]core.Input, len(req.Files))
		for i, f := range req.Files {
			if f.Source == "" {
				return nil, false, false, &requestError{http.StatusBadRequest,
					fmt.Sprintf("files[%d] (%q) has no source", i, f.Path)}
			}
			path := f.Path
			if path == "" {
				path = fmt.Sprintf("files[%d].js", i)
			}
			inputs[i] = core.Input{Path: path, Source: f.Source}
		}
		return inputs, req.Explain, false, nil
	}
	if len(body) == 0 {
		return nil, false, false, &requestError{http.StatusBadRequest, "empty script body"}
	}
	path := r.URL.Query().Get("path")
	if path == "" {
		path = "body.js"
	}
	explain = r.URL.Query().Get("explain") != ""
	return []core.Input{{Path: path, Source: string(body)}}, explain, true, nil
}

// buildReport renders one scan result. Diagnostics are attached only when
// the request asked for them; a scanner that skips the rules has none.
func buildReport(r *core.FileResult, explain bool) Report {
	rep := Report{Path: r.Path, Deduped: r.Deduped, Bypassed: r.Bypassed}
	if r.Err != nil {
		rep.Error = r.Err.Error()
		return rep
	}
	rep.Transformed = r.Level1.IsTransformed()
	rep.Regular = r.Level1.Regular
	rep.Minified = r.Level1.Minified
	rep.Obfuscated = r.Level1.Obfuscated
	if r.Level2 != nil {
		rep.Probabilities = make(map[string]float64, len(r.Level2.Ranked))
		for _, p := range r.Level2.Ranked {
			rep.Probabilities[p.Technique.String()] = p.Probability
		}
		for _, p := range r.Level2.TopK(DefaultTopK, core.DefaultThreshold) {
			rep.Techniques = append(rep.Techniques, TechniqueReport{
				Technique:   p.Technique.String(),
				Probability: p.Probability,
			})
		}
	}
	if explain {
		rep.Diagnostics = r.Diagnostics
	}
	return rep
}

// logRequest emits the structured per-request line; dur is the handler's
// wall time (queue wait included), not just the scan.
func (s *Server) logRequest(r *http.Request, status int, started time.Time, results []core.FileResult, stats core.ScanStats) {
	// Count per-file failures so the log separates them from the verdicts.
	failures := 0
	for i := range results {
		if results[i].Err != nil {
			failures++
		}
	}
	s.log.Printf("method=%s path=%s status=%d files=%d bytes=%d deduped=%d failures=%d dur=%s remote=%s",
		r.Method, r.URL.Path, status, stats.Files, stats.Bytes, stats.Deduped, failures,
		time.Since(started).Round(time.Microsecond), r.RemoteAddr)
}

// healthResponse is the /healthz body.
type healthResponse struct {
	Status string `json:"status"`
	Uptime string `json:"uptime"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, healthResponse{Status: "draining", Uptime: time.Since(s.start).String()})
		return
	}
	writeJSON(w, http.StatusOK, healthResponse{Status: "ok", Uptime: time.Since(s.start).String()})
}

// AdminReport is the /admin/metrics body: the obs registry dump plus the
// service-level aggregates that exist even without a registry installed.
type AdminReport struct {
	Uptime   string `json:"uptime"`
	Draining bool   `json:"draining"`
	Requests int64  `json:"requests"`
	Rejected int64  `json:"rejected"`
	Files    int64  `json:"files"`
	Deduped  int64  `json:"deduped"`
	// Bypassed counts verdicts the triage router synthesized; StoreHits
	// counts verdicts answered from the on-disk store. This is where store
	// provenance is observable — scan responses deliberately omit it.
	Bypassed  int64      `json:"bypassed"`
	StoreHits int64      `json:"storeHits"`
	Queue     QueueStats `json:"queue"`
	// Cache is the shared dedup LRU's occupancy; nil when the daemon runs
	// without -dedup.
	Cache *core.DedupStats `json:"cache,omitempty"`
	// Store is the on-disk verdict store's state; nil when the daemon runs
	// without -store.
	Store *store.Stats `json:"store,omitempty"`
	// Stages is the cumulative per-stage pipeline breakdown across every
	// request served (durations summed across workers).
	Stages []core.StageStats `json:"stages,omitempty"`
	// Metrics is the obs registry snapshot (counters and histograms).
	Metrics obs.Snapshot `json:"metrics"`
}

// QueueStats describes the job queue on the admin endpoint.
type QueueStats struct {
	// Depth is the number of queued-not-started jobs; Active the jobs
	// being scanned right now; Capacity the queue bound requests bounce off.
	Depth    int   `json:"depth"`
	Active   int64 `json:"active"`
	Capacity int   `json:"capacity"`
}

func (s *Server) handleAdmin(w http.ResponseWriter, r *http.Request) {
	rep := AdminReport{
		Uptime:    time.Since(s.start).String(),
		Draining:  s.draining.Load(),
		Requests:  s.requests.Load(),
		Rejected:  s.rejected.Load(),
		Files:     s.scanned.Load(),
		Deduped:   s.deduped.Load(),
		Bypassed:  s.bypassed.Load(),
		StoreHits: s.storeHits.Load(),
		Queue:     QueueStats{Depth: len(s.jobs), Active: s.active.Load(), Capacity: cap(s.jobs)},
	}
	if st, ok := s.scanner.DedupStats(); ok {
		rep.Cache = &st
	}
	if st, ok := s.scanner.StoreStats(); ok {
		rep.Store = &st
	}
	s.stageMu.Lock()
	rep.Stages = append([]core.StageStats(nil), s.stages...)
	s.stageMu.Unlock()
	if reg := obs.Get(); reg != nil {
		rep.Metrics = reg.Snapshot()
	}
	writeJSON(w, http.StatusOK, rep)
}
