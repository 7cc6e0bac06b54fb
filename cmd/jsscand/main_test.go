package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/ml"
	"repro/internal/transform"
)

// The daemon test drives run() end to end the way the jsdetect integration
// tests drive theirs: tiny constant-output model files on disk, a real
// listener on an ephemeral port, real HTTP traffic, and a context
// cancellation standing in for SIGTERM.

// writeTinyModels writes constant-output level1/level2 model files for the
// default feature options (dims 1024), matching the daemon's -dims default.
func writeTinyModels(t *testing.T, dir string) {
	t.Helper()
	featOpts := features.Options{}
	fp := ml.Fingerprint{
		NGramDims:    uint32(featOpts.Dims()),
		NGramLen:     features.NGramLen,
		RuleFeatures: featOpts.RuleFeatures,
	}
	l2labels := make([]string, len(transform.Techniques))
	l2probs := make([]float64, len(transform.Techniques))
	for i, tech := range transform.Techniques {
		l2labels[i] = tech.String()
		l2probs[i] = 0.9 - 0.05*float64(i)
	}
	for name, m := range map[string]ml.MultiTask{
		"level1.model": constChain(core.Level1Labels, []float64{0.1, 0.9, 0.2}),
		"level2.model": constChain(l2labels, l2probs),
	} {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := ml.WriteModel(f, m, fp); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// constChain builds a chain of single-leaf forests with fixed outputs.
func constChain(labels []string, probs []float64) ml.MultiTask {
	forests := make([]*ml.Forest, len(labels))
	for i := range forests {
		forests[i] = &ml.Forest{Trees: []*ml.Tree{
			{Nodes: []ml.TreeNode{{Feature: 0, Left: -1, Right: -1, Prob: probs[i]}}},
		}}
	}
	return &ml.Chain{Names: append([]string(nil), labels...), Forests: forests}
}

// syncBuffer is a goroutine-safe log sink: run() writes from the daemon's
// goroutines while the test polls for the listening line.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

var listeningRE = regexp.MustCompile(`event=listening addr=http://([^/\s]+)/`)

// startDaemon runs the daemon on an ephemeral port and returns its base URL
// plus the channel carrying run's exit code.
func startDaemon(t *testing.T, ctx context.Context, stderr *syncBuffer, extraArgs ...string) (url string, exit chan int) {
	t.Helper()
	models := t.TempDir()
	writeTinyModels(t, models)
	return startDaemonAt(t, ctx, stderr, models, extraArgs...)
}

// startDaemonAt is startDaemon with a caller-owned models directory, for
// tests that restart the daemon against the same models and state.
func startDaemonAt(t *testing.T, ctx context.Context, stderr *syncBuffer, models string, extraArgs ...string) (url string, exit chan int) {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0", "-models", models}, extraArgs...)
	exit = make(chan int, 1)
	go func() { exit <- run(ctx, args, stderr) }()

	deadline := time.Now().Add(15 * time.Second)
	for {
		if m := listeningRE.FindStringSubmatch(stderr.String()); m != nil {
			return "http://" + m[1], exit
		}
		select {
		case code := <-exit:
			t.Fatalf("daemon exited %d before listening:\n%s", code, stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never logged its listening address:\n%s", stderr.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDaemonLifecycle: start, serve a scan, shut down via the signal
// context, exit 0 with the drain line flushed.
func TestDaemonLifecycle(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stderr syncBuffer
	url, exit := startDaemon(t, ctx, &stderr)

	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	resp, err = http.Post(url+"/v1/scan", "application/javascript", strings.NewReader("var a = 1;"))
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Path        string             `json:"path"`
		Transformed bool               `json:"transformed"`
		Probs       map[string]float64 `json:"probabilities"`
	}
	decErr := json.NewDecoder(resp.Body).Decode(&rep)
	resp.Body.Close()
	if decErr != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("scan: status %d err %v", resp.StatusCode, decErr)
	}
	if rep.Path != "body.js" || !rep.Transformed {
		t.Errorf("verdict = %+v", rep)
	}
	// -full-probs defaults on: the canned level 2 ranking is present.
	if len(rep.Probs) != len(transform.Techniques) {
		t.Errorf("%d technique probabilities, want %d", len(rep.Probs), len(transform.Techniques))
	}

	// The per-request log line landed.
	if !strings.Contains(stderr.String(), "method=POST path=/v1/scan status=200") {
		t.Errorf("missing request log line in:\n%s", stderr.String())
	}

	// SIGTERM path: the NotifyContext in main cancels this ctx.
	cancel()
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("exit = %d after graceful shutdown:\n%s", code, stderr.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not exit after cancellation")
	}
	if !strings.Contains(stderr.String(), "event=drained") {
		t.Errorf("drain summary not flushed:\n%s", stderr.String())
	}
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Error("daemon still answering after exit")
	}
}

// TestDaemonBackpressureFlags: -queue and -concurrent wire through to the
// service (saturating the tiny queue yields 429 without felling the daemon).
func TestDaemonAdminSurface(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stderr syncBuffer
	url, exit := startDaemon(t, ctx, &stderr, "-queue", "3", "-concurrent", "1", "-dedup-cap", "16")

	resp, err := http.Post(url+"/v1/scan", "application/javascript", strings.NewReader("var a = 1;"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	aresp, err := http.Get(url + "/admin/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var admin struct {
		Requests int64 `json:"requests"`
		Queue    struct {
			Capacity int `json:"capacity"`
		} `json:"queue"`
		Cache *struct {
			Entries  int `json:"entries"`
			Capacity int `json:"capacity"`
		} `json:"cache"`
		Metrics struct {
			Counters []struct {
				Name  string `json:"name"`
				Value int64  `json:"value"`
			} `json:"counters"`
		} `json:"metrics"`
	}
	decErr := json.NewDecoder(aresp.Body).Decode(&admin)
	aresp.Body.Close()
	if decErr != nil {
		t.Fatal(decErr)
	}
	if admin.Requests != 1 || admin.Queue.Capacity != 3 {
		t.Errorf("admin = %+v, want 1 request, queue capacity 3", admin)
	}
	// -dedup defaults on; the scan populated one entry.
	if admin.Cache == nil || admin.Cache.Entries != 1 || admin.Cache.Capacity != 16 {
		t.Errorf("cache = %+v, want 1 entry of 16", admin.Cache)
	}
	// obs.Enable() is on for the daemon's lifetime, so service counters flow.
	// The registry is process-global (it outlives each run() in this test
	// binary), so assert presence rather than an exact count.
	found := false
	for _, c := range admin.Metrics.Counters {
		if c.Name == "service.requests" && c.Value >= 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("service.requests counter missing from admin dump: %+v", admin.Metrics.Counters)
	}

	cancel()
	if code := <-exit; code != 0 {
		t.Fatalf("exit = %d:\n%s", code, stderr.String())
	}
}

// TestDaemonStartupFailures: the exit-code contract for a daemon that must
// die loudly rather than serve garbage.
func TestDaemonStartupFailures(t *testing.T) {
	var stderr syncBuffer
	if code := run(context.Background(), []string{"-definitely-not-a-flag"}, &stderr); code != 2 {
		t.Errorf("bad flag exit = %d, want 2", code)
	}
	stderr = syncBuffer{}
	if code := run(context.Background(), []string{"-models", t.TempDir()}, &stderr); code != 1 {
		t.Errorf("missing models exit = %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "load level 1") {
		t.Errorf("missing-model error not loud:\n%s", stderr.String())
	}
	// A dims mismatch is a fingerprint failure, not a silent misclassifier.
	models := t.TempDir()
	writeTinyModels(t, models)
	stderr = syncBuffer{}
	if code := run(context.Background(), []string{"-models", models, "-dims", "512"}, &stderr); code != 1 {
		t.Errorf("dims mismatch exit = %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "load level 1") {
		t.Errorf("fingerprint error not loud:\n%s", stderr.String())
	}
	// An unusable listen address fails after models load.
	stderr = syncBuffer{}
	if code := run(context.Background(), []string{"-models", models, "-addr", "256.256.256.256:1"}, &stderr); code != 1 {
		t.Errorf("bad addr exit = %d, want 1", code)
	}
}
