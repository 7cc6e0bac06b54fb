// Command jsscand is the long-running scan service: the jsdetect pipeline
// behind an HTTP/JSON API, with models loaded once at startup instead of
// once per invocation.
//
// Usage:
//
//	jsscand -models models/ -addr :8329
//	curl -X POST --data-binary @file.js localhost:8329/v1/scan
//	curl -X POST -H 'Content-Type: application/json' \
//	     -d '{"files":[{"path":"a.js","source":"var x = 1;"}]}' \
//	     localhost:8329/v1/scan
//	curl localhost:8329/healthz
//	curl localhost:8329/admin/metrics
//
// The daemon classifies every submission with the batch scan engine: a
// worker pool (-concurrent) over a bounded job queue (-queue) that rejects
// with 429 + Retry-After under saturation, a per-request scan budget
// (-timeout), a request-size limit (-max-bytes), and the content-hash dedup
// LRU (-dedup) shared across all requests. -triage enables the stage-0
// cascade (high-confidence regular/minified submissions skip the full
// pipeline), and -store dir/ persists verdicts on disk so a redeployed
// daemon answers repeat content without rescanning — responses are identical
// across the restart; store traffic shows on /admin/metrics.
// SIGINT/SIGTERM trigger a graceful drain: the listener stops accepting,
// queued and in-flight scans finish (bounded by -grace), and the final
// metrics line is flushed.
//
// Models come from the trainer command; v2 model files embed the feature
// fingerprint they were trained with, and startup fails loudly on mismatch.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/store"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stderr))
}

func run(ctx context.Context, args []string, stderr io.Writer) int {
	flags := flag.NewFlagSet("jsscand", flag.ContinueOnError)
	flags.SetOutput(stderr)
	addr := flags.String("addr", "localhost:8329", "HTTP listen address")
	models := flags.String("models", "models", "directory containing level1.model and level2.model")
	dims := flags.Int("dims", 1024, "hashed 4-gram dimensions (must match training)")
	workers := flags.Int("workers", 0, "scan worker pool size per job (0 = GOMAXPROCS)")
	concurrent := flags.Int("concurrent", 0, "scan jobs processed at once (0 = GOMAXPROCS)")
	queue := flags.Int("queue", service.DefaultQueueSize, "job queue bound; beyond it requests get 429")
	timeout := flags.Duration("timeout", service.DefaultRequestTimeout, "per-request scan budget")
	maxBytes := flags.Int64("max-bytes", service.DefaultMaxRequestBytes, "request body size limit")
	grace := flags.Duration("grace", 30*time.Second, "shutdown drain budget")
	dedup := flags.Bool("dedup", true, "share the content-hash verdict cache across requests")
	dedupCap := flags.Int("dedup-cap", core.DefaultDedupCapacity, "distinct contents the dedup cache retains")
	triage := flags.Bool("triage", false, "route high-confidence regular/minified files around the full pipeline")
	storeDir := flags.String("store", "", "persist verdicts to this directory so repeat content survives restarts")
	explain := flags.Bool("explain", false, "run the static indicator rules so requests can ask for diagnostics")
	fullProbs := flags.Bool("full-probs", true, "rank all techniques for every file, not only transformed ones")
	pprofAddr := flags.String("pprof", "", "serve net/http/pprof on this address for the daemon's lifetime")
	if err := flags.Parse(args); err != nil {
		return 2
	}

	// The registry is on for the daemon's lifetime: the admin endpoint is
	// the service's metrics surface, so unlike the one-shot CLI there is no
	// scoped measurement window to manage.
	obs.Enable()

	logger := log.New(stderr, "jsscand: ", log.LstdFlags|log.Lmsgprefix)

	if *pprofAddr != "" {
		ln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fmt.Fprintf(stderr, "jsscand: -pprof: %v\n", err)
			return 1
		}
		logger.Printf("event=pprof addr=http://%s/debug/pprof/", ln.Addr())
		stopPprof := service.StartHTTP(ln, nil)
		defer stopPprof()
	}

	// Models load exactly once, before the listener opens: a daemon that
	// would misclassify every request (wrong -dims, swapped level files) must
	// die here, loudly, not serve garbage.
	featOpts := features.Options{NGramDims: *dims}
	l1, err := core.LoadLevelFile(filepath.Join(*models, "level1.model"), featOpts, core.Level1Labels)
	if err != nil {
		fmt.Fprintf(stderr, "jsscand: load level 1: %v\n", err)
		return 1
	}
	l2, err := core.LoadLevelFile(filepath.Join(*models, "level2.model"), featOpts, core.Level2Labels())
	if err != nil {
		fmt.Fprintf(stderr, "jsscand: load level 2: %v\n", err)
		return 1
	}
	scanOpts := core.ScanOptions{
		Workers:       *workers,
		Explain:       *explain,
		ForceLevel2:   *fullProbs,
		Dedup:         *dedup,
		DedupCapacity: *dedupCap,
		Triage:        *triage,
	}
	if *storeDir != "" {
		vs, err := store.Open(*storeDir)
		if err != nil {
			fmt.Fprintf(stderr, "jsscand: -store: %v\n", err)
			return 1
		}
		defer func() {
			if err := vs.Close(); err != nil {
				fmt.Fprintf(stderr, "jsscand: close store: %v\n", err)
			}
		}()
		st := vs.Stats()
		logger.Printf("event=store dir=%s entries=%d recovered=%d dropped_bytes=%d",
			*storeDir, st.Entries, st.Recovered, st.DroppedBytes)
		scanOpts.VerdictStore = vs
	}
	scanner, err := core.NewScanner(l1, l2, scanOpts)
	if err != nil {
		fmt.Fprintf(stderr, "jsscand: %v\n", err)
		return 1
	}

	srv := service.New(scanner, service.Config{
		Concurrency:     *concurrent,
		QueueSize:       *queue,
		MaxRequestBytes: *maxBytes,
		RequestTimeout:  *timeout,
		Log:             logger,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "jsscand: listen: %v\n", err)
		return 1
	}
	logger.Printf("event=listening addr=http://%s/ queue=%d concurrent=%d", ln.Addr(), *queue, *concurrent)
	if err := srv.Serve(ctx, ln, *grace); err != nil {
		fmt.Fprintf(stderr, "jsscand: %v\n", err)
		return 1
	}
	return 0
}
