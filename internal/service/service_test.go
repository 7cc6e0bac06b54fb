package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/transform"
)

// The service tests run against two kinds of scanner: a canned-probability
// one (leaf-only forests, same construction as core's scanner tests but
// round-tripped through the model format because Detector internals are not
// exported) for fast plumbing tests with exactly known outputs, and a real
// trained pair (soak_test.go) when verdicts must depend on the input.

// tinyL2Probs are the canned level 2 probabilities, one per technique in
// transform.Techniques order. Two-decimal literals so golden JSON responses
// render cleanly.
var tinyL2Probs = []float64{0.95, 0.9, 0.85, 0.8, 0.75, 0.7, 0.65, 0.6, 0.55, 0.5}

// tinyL1Probs flag every file as minified so level 2 always runs.
var tinyL1Probs = []float64{0.1, 0.9, 0.2}

// tinyDetector builds a constant-output detector by writing a leaf-only
// classifier chain in the v2 model format and loading it back.
func tinyDetector(t *testing.T, labels []string, probs []float64, featOpts features.Options) *core.Detector {
	t.Helper()
	forests := make([]*ml.Forest, len(labels))
	for i := range forests {
		forests[i] = &ml.Forest{Trees: []*ml.Tree{
			{Nodes: []ml.TreeNode{{Feature: 0, Left: -1, Right: -1, Prob: probs[i]}}},
		}}
	}
	chain := &ml.Chain{Names: append([]string(nil), labels...), Forests: forests}
	var buf bytes.Buffer
	fp := ml.Fingerprint{
		NGramDims:    uint32(featOpts.Dims()),
		NGramLen:     features.NGramLen,
		RuleFeatures: featOpts.RuleFeatures,
	}
	if err := ml.WriteModel(&buf, chain, fp); err != nil {
		t.Fatalf("write tiny model: %v", err)
	}
	d, err := core.Load(&buf, featOpts)
	if err != nil {
		t.Fatalf("load tiny model: %v", err)
	}
	return d
}

// tinyScanner pairs canned level 1 and level 2 detectors on a small feature
// layout.
func tinyScanner(t *testing.T, opts core.ScanOptions) *core.Scanner {
	t.Helper()
	featOpts := features.Options{NGramDims: 256}
	l1 := tinyDetector(t, core.Level1Labels, tinyL1Probs, featOpts)
	l2 := tinyDetector(t, core.Level2Labels(), tinyL2Probs, featOpts)
	s, err := core.NewScanner(l1, l2, opts)
	if err != nil {
		t.Fatalf("NewScanner: %v", err)
	}
	return s
}

// swapObs installs a fresh registry for the test and restores the previous
// one afterwards.
func swapObs(t *testing.T) *obs.Registry {
	t.Helper()
	reg := obs.NewRegistry()
	prev := obs.Swap(reg)
	t.Cleanup(func() { obs.Swap(prev) })
	return reg
}

// newTestServer starts a Server over the given scanner and fronts it with an
// httptest listener; cleanup drains the pool and closes the listener.
func newTestServer(t *testing.T, scanner *core.Scanner, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(scanner, cfg)
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return s, ts
}

// checkNoGoroutineLeak polls until the goroutine count returns to the
// baseline (finished goroutines take a moment to retire) and fails when it
// never does — the same before/after pattern the PR 3 cancellation leak
// tests use.
func checkNoGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	for i := 0; i < 100; i++ {
		// Keep-alive connections pin a read-loop goroutine on each side;
		// they are the client's to close, not a server leak.
		http.DefaultClient.CloseIdleConnections()
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines grew from %d to %d", before, runtime.NumGoroutine())
}

// postScript submits one raw script body.
func postScript(t *testing.T, url, src string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/scan", "application/javascript", strings.NewReader(src))
	if err != nil {
		t.Fatalf("POST /v1/scan: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	return resp, body
}

// postBatch submits a JSON batch.
func postBatch(t *testing.T, url string, req ScanRequest) (*http.Response, []byte) {
	t.Helper()
	payload, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/scan", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatalf("POST /v1/scan: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	return resp, body
}

// decodeJSON unmarshals into a generic value for golden comparison.
func decodeJSON(t *testing.T, data []byte) any {
	t.Helper()
	var v any
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("response is not JSON: %v\n%s", err, data)
	}
	return v
}

// TestScanSingleGolden pins the exact JSON verdict for a raw script body:
// the canned detectors make every probability a known constant, so the
// response is compared against a full golden document.
func TestScanSingleGolden(t *testing.T) {
	swapObs(t)
	_, ts := newTestServer(t, tinyScanner(t, core.ScanOptions{Workers: 1}), Config{Concurrency: 1})
	resp, body := postScript(t, ts.URL, "var a = 1; function f(x) { return x + a; } f(2);")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	golden := `{
		"path": "body.js",
		"transformed": true,
		"regular": 0.1,
		"minified": 0.9,
		"obfuscated": 0.2,
		"probabilities": {
			"identifier obfuscation": 0.95,
			"string obfuscation": 0.9,
			"global array": 0.85,
			"no alphanumeric": 0.8,
			"dead-code injection": 0.75,
			"control-flow flattening": 0.7,
			"self-defending": 0.65,
			"debug protection": 0.6,
			"minification simple": 0.55,
			"minification advanced": 0.5
		},
		"techniques": [
			{"technique": "identifier obfuscation", "probability": 0.95},
			{"technique": "string obfuscation", "probability": 0.9},
			{"technique": "global array", "probability": 0.85},
			{"technique": "no alphanumeric", "probability": 0.8}
		]
	}`
	if got, want := decodeJSON(t, body), decodeJSON(t, []byte(golden)); !reflect.DeepEqual(got, want) {
		t.Errorf("single-scan response diverges from golden:\ngot  %s\nwant %s", body, golden)
	}
}

// TestScanSinglePathQuery covers the ?path= passthrough on raw bodies.
func TestScanSinglePathQuery(t *testing.T) {
	swapObs(t)
	_, ts := newTestServer(t, tinyScanner(t, core.ScanOptions{Workers: 1}), Config{Concurrency: 1})
	resp, err := http.Post(ts.URL+"/v1/scan?path=lib/vendor.js", "text/plain", strings.NewReader("var x = 1;"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Path != "lib/vendor.js" {
		t.Errorf("path = %q, want lib/vendor.js", rep.Path)
	}
}

// TestScanBatchOrdering checks that a JSON batch comes back one report per
// input, in input order, with per-file parse failures isolated in place —
// the service must inherit the batch engine's ordering contract across the
// worker pool and the HTTP boundary.
func TestScanBatchOrdering(t *testing.T) {
	swapObs(t)
	_, ts := newTestServer(t, tinyScanner(t, core.ScanOptions{Workers: 4}), Config{Concurrency: 2})
	req := ScanRequest{}
	for i := 0; i < 40; i++ {
		req.Files = append(req.Files, ScanFile{
			Path:   fmt.Sprintf("file_%03d.js", i),
			Source: fmt.Sprintf("var a%d = %d; function f%d(x) { return x + a%d; } f%d(1);", i, i, i, i, i),
		})
	}
	req.Files[7].Source = "function ( {{{"
	resp, body := postBatch(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var out BatchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(out.Results) != len(req.Files) {
		t.Fatalf("%d results for %d files", len(out.Results), len(req.Files))
	}
	for i, r := range out.Results {
		if r.Path != req.Files[i].Path {
			t.Fatalf("result %d path %q, want %q (ordering broken)", i, r.Path, req.Files[i].Path)
		}
		if i == 7 {
			if r.Error == "" || !strings.Contains(r.Error, "parse") {
				t.Errorf("broken file must carry its parse error, got %+v", r)
			}
			continue
		}
		if r.Error != "" {
			t.Errorf("healthy file %d failed: %s", i, r.Error)
		}
	}
	if out.Stats.Files != 40 || out.Stats.ParseFailures != 1 || out.Stats.Transformed != 39 {
		t.Errorf("stats = %+v", out.Stats)
	}
	if out.Stats.Truncated || out.Error != "" {
		t.Errorf("uncancelled batch must not be truncated: %+v", out)
	}
}

// TestScanMalformedInputs is the malformed-input table: every bad request
// shape gets the pinned status and a JSON error body, and none of them take
// the service down (the probe scan at the end must still work).
func TestScanMalformedInputs(t *testing.T) {
	swapObs(t)
	_, ts := newTestServer(t, tinyScanner(t, core.ScanOptions{Workers: 1}),
		Config{Concurrency: 1, MaxRequestBytes: 2048})
	cases := []struct {
		name        string
		method      string
		contentType string
		body        string
		wantStatus  int
		wantErr     string
	}{
		{"wrong method", http.MethodGet, "", "", http.StatusMethodNotAllowed, "use POST"},
		{"empty body", http.MethodPost, "application/javascript", "", http.StatusBadRequest, "empty script"},
		{"bad json", http.MethodPost, "application/json", "{not json", http.StatusBadRequest, "malformed JSON"},
		{"json array", http.MethodPost, "application/json", `["a.js"]`, http.StatusBadRequest, "malformed JSON"},
		{"unknown field", http.MethodPost, "application/json", `{"scripts":[]}`, http.StatusBadRequest, "malformed JSON"},
		{"no files", http.MethodPost, "application/json", `{"files":[]}`, http.StatusBadRequest, "no files"},
		{"file without source", http.MethodPost, "application/json", `{"files":[{"path":"a.js"}]}`, http.StatusBadRequest, "has no source"},
		{"oversized body", http.MethodPost, "application/javascript", strings.Repeat("x", 4096), http.StatusRequestEntityTooLarge, "exceeds"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+"/v1/scan", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			if tc.contentType != "" {
				req.Header.Set("Content-Type", tc.contentType)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d (body %s)", resp.StatusCode, tc.wantStatus, body)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(body, &e); err != nil {
				t.Fatalf("error body is not JSON: %v (%s)", err, body)
			}
			if !strings.Contains(e.Error, tc.wantErr) {
				t.Errorf("error %q does not mention %q", e.Error, tc.wantErr)
			}
		})
	}
	// The service must still answer after the whole table.
	resp, body := postScript(t, ts.URL, "var ok = true;")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("probe scan after malformed inputs: status %d, body %s", resp.StatusCode, body)
	}
}

// TestHealthz pins the liveness endpoint in both states.
func TestHealthz(t *testing.T) {
	swapObs(t)
	s, ts := newTestServer(t, tinyScanner(t, core.ScanOptions{Workers: 1}), Config{Concurrency: 1})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h healthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || h.Status != "ok" {
		t.Fatalf("healthz = %d %+v", resp.StatusCode, h)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz status = %d, want 503", resp2.StatusCode)
	}
}

// TestAdminEndpoint checks the admin surface: request totals, queue shape,
// the obs registry dump (service.* and scan.* metrics), and the cumulative
// per-stage breakdown folded in from each scan.
func TestAdminEndpoint(t *testing.T) {
	reg := swapObs(t)
	_, ts := newTestServer(t, tinyScanner(t, core.ScanOptions{Workers: 1}),
		Config{Concurrency: 1, QueueSize: 7})
	postScript(t, ts.URL, "var a = 1;")
	postBatch(t, ts.URL, ScanRequest{Files: []ScanFile{
		{Path: "a.js", Source: "var a = 1;"},
		{Path: "b.js", Source: "var b = 2;"},
	}})

	resp, err := http.Get(ts.URL + "/admin/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep AdminReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 2 || rep.Rejected != 0 || rep.Files != 3 {
		t.Errorf("admin totals = %+v, want 2 requests / 3 files", rep)
	}
	if rep.Queue.Capacity != 7 || rep.Queue.Depth != 0 || rep.Queue.Active != 0 {
		t.Errorf("queue stats = %+v", rep.Queue)
	}
	if rep.Cache != nil {
		t.Errorf("cache stats present without dedup: %+v", rep.Cache)
	}
	if rep.Draining {
		t.Error("admin reports draining on a live server")
	}
	// The registry was installed, so scans collected per-stage stats; every
	// pipeline stage that ran must appear in the cumulative breakdown.
	stages := make(map[string]int64)
	for _, st := range rep.Stages {
		stages[st.Stage] = st.Files
	}
	for _, want := range []string{"parse", "flow", "features", "infer"} {
		if stages[want] != 3 {
			t.Errorf("stage %q covered %d files, want 3 (stages %+v)", want, stages[want], rep.Stages)
		}
	}
	// The registry dump carries the service instrumentation.
	counters := make(map[string]int64)
	for _, c := range rep.Metrics.Counters {
		counters[c.Name] = c.Value
	}
	if counters["service.requests"] != 2 {
		t.Errorf("service.requests = %d, want 2", counters["service.requests"])
	}
	if counters["scan.files"] != 3 {
		t.Errorf("scan.files = %d, want 3", counters["scan.files"])
	}
	hists := make(map[string]bool)
	for _, h := range rep.Metrics.Histograms {
		hists[h.Name] = h.Count > 0
	}
	for _, want := range []string{"service.request.duration", "service.queue.wait", "service.queue.depth"} {
		if !hists[want] {
			t.Errorf("histogram %q missing or empty in admin dump", want)
		}
	}
	// The admin view and the registry agree.
	if got := reg.Counter("service.requests").Value(); got != 2 {
		t.Errorf("registry service.requests = %d, want 2", got)
	}
}

// TestExplainPassthrough: diagnostics appear only when both the daemon
// collects them and the request asks.
func TestExplainPassthrough(t *testing.T) {
	swapObs(t)
	scanner := tinyScanner(t, core.ScanOptions{Workers: 1, Explain: true})
	_, ts := newTestServer(t, scanner, Config{Concurrency: 1, Explain: true})
	// eval of a concatenated string trips the dynamic-code-sink rule.
	src := "eval(\"con\" + \"sole.log(1)\");"
	resp, err := http.Post(ts.URL+"/v1/scan?explain=1", "application/javascript", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Diagnostics) == 0 {
		t.Error("explain request returned no diagnostics")
	}
	// Without the request flag the same scan omits them.
	_, body := postScript(t, ts.URL, src)
	var rep2 Report
	if err := json.Unmarshal(body, &rep2); err != nil {
		t.Fatal(err)
	}
	if len(rep2.Diagnostics) != 0 {
		t.Error("diagnostics leaked into a request that did not ask for them")
	}
	if len(transform.Techniques) != len(tinyL2Probs) {
		t.Fatalf("tinyL2Probs has %d entries for %d techniques", len(tinyL2Probs), len(transform.Techniques))
	}
}
