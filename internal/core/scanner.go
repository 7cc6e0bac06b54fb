package core

import (
	"context"
	"crypto/sha256"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/corpus"
	"repro/internal/features"
	"repro/internal/flow"
	"repro/internal/js/parser"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/store"
	"repro/internal/triage"
)

// The batch scan engine classifies whole directories the way the paper's
// evaluation classifies the wild set (Section IV, 424k scripts): every file
// is parsed exactly once, and the resulting AST, flow graph, and indicator
// diagnostics are shared across the level 1 detector, the level 2 detector,
// and the -explain output. The calling goroutine scans alongside up to
// Workers-1 helpers; results stream back in input order regardless of
// completion order.

// ScanOptions configures a Scanner.
type ScanOptions struct {
	// Workers is the number of goroutines that scan one call's inputs, the
	// calling goroutine included (so 1 scans on the caller alone and
	// starts no goroutine); <= 0 means GOMAXPROCS. A call never uses more
	// workers than it has inputs.
	Workers int
	// Explain runs the static indicator rules on every file and attaches
	// the diagnostics to its FileResult. The rules run over the scan's
	// shared parse, so this does not add a parse pass.
	Explain bool
	// StageStats collects the per-stage timing/bytes breakdown into
	// ScanStats.Stages. Stage stats are also collected, regardless of this
	// setting, while the process-wide obs registry is enabled (jsdetect
	// -metrics); otherwise the scan skips the per-file clock reads.
	StageStats bool
	// ForceLevel2 ranks the transformation techniques for every parsed
	// file, not only the ones level 1 flags as transformed. The scan
	// service uses it so every response carries the full per-technique
	// probability vector; inference is ~0.1% of pipeline cost, so the
	// always-on ranking is effectively free.
	ForceLevel2 bool
	// Dedup enables the content-hash result cache: files whose SHA-256
	// matches an already-scanned file short-circuit the whole
	// parse/flow/rules/features/infer pipeline and replay the cached verdict
	// (with the repeat's own Path, and Deduped set). The cache lives on the
	// Scanner, so hits carry across ScanBatch/ScanStream calls.
	Dedup bool
	// DedupCapacity bounds the number of distinct contents the cache
	// retains (LRU eviction); <= 0 means DefaultDedupCapacity.
	DedupCapacity int
	// Triage enables the stage-0 pre-classifier: a single cheap pass over
	// the text routes high-confidence regular or plainly minified files
	// around the full parse→flow→features→infer pipeline, synthesizing the
	// verdict directly (FileResult.Bypassed). The router is conservative —
	// any obfuscation signal escalates to the full pipeline — and its
	// honesty is measured by TestTriageFalseBypassGate.
	Triage bool
	// TriageConfig tunes the triage router; the zero value uses the
	// documented defaults the false-bypass gate validates.
	TriageConfig triage.Config
	// VerdictStore, when non-nil, extends the in-memory dedup cache across
	// process restarts: completed verdicts are persisted to the store keyed
	// by content hash (salted with the model identity, so a store directory
	// can never serve verdicts computed by a different model or triage
	// configuration), and repeat content is answered from disk without
	// re-running the pipeline (FileResult.FromStore). The caller owns the
	// store's lifecycle; writes are best-effort (a failed append costs a
	// future rescan, never a wrong answer).
	VerdictStore *store.Store
}

// Input is one file to classify. Path is carried through to the result
// verbatim; Source is the JavaScript text (already extracted from HTML when
// the caller scans pages).
type Input struct {
	Path   string
	Source string
}

// Inputs turns corpus files into scan inputs, one per file, named by the
// file's name.
func Inputs(files []corpus.File) []Input {
	out := make([]Input, len(files))
	for i, f := range files {
		out[i] = Input{Path: f.Name, Source: f.Source}
	}
	return out
}

// FileResult is the verdict on one input. When Err is non-nil (the file did
// not parse), the classification fields are zero: one broken file never
// aborts the batch.
type FileResult struct {
	Path  string
	Bytes int
	// Level1 is the regular/minified/obfuscated verdict.
	Level1 Level1Result
	// Level2 ranks the transformation techniques; nil when level 1 did not
	// flag the file as transformed (unless the scan runs with ForceLevel2).
	Level2 *Level2Result
	// Diagnostics carries the static indicator findings when the scanner
	// runs with Explain.
	Diagnostics []analysis.Diagnostic
	// Err is the per-file failure, typically a parse error.
	Err error
	// Deduped marks a verdict replayed from the content-hash cache
	// (ScanOptions.Dedup): this input's bytes matched an earlier file, so
	// Level1/Level2/Diagnostics are shared with that file's result and must
	// be treated as read-only.
	Deduped bool
	// Bypassed marks a verdict synthesized by the stage-0 triage router
	// (ScanOptions.Triage) without running the full pipeline: Level1 carries
	// the routed class at full confidence and Level2/Diagnostics are empty.
	// The flag is part of the verdict — it survives the verdict store and
	// the dedup cache — so a replayed bypass still reports as one.
	Bypassed bool
	// FromStore marks a verdict answered from the on-disk verdict store
	// (ScanOptions.VerdictStore) rather than computed in this process. It
	// describes provenance, not the verdict: it is not persisted, and cache
	// replays of a store hit do not carry it.
	FromStore bool
}

// ScanStats aggregates one batch scan.
type ScanStats struct {
	// Files is the number of inputs processed (including failures).
	Files int
	// Bytes is the total source size scanned.
	Bytes int64
	// ParseFailures counts inputs whose Err is non-nil.
	ParseFailures int
	// Regular, Minified, Obfuscated, Transformed count level 1 verdicts at
	// the 0.5 decision threshold (Minified and Obfuscated can overlap;
	// Regular means not transformed).
	Regular, Minified, Obfuscated, Transformed int
	// Deduped counts inputs answered from the content-hash cache. Those
	// inputs still contribute to Files, Bytes, and the verdict counts.
	Deduped int
	// Bypassed counts inputs whose verdict the triage router synthesized
	// without the full pipeline (including bypassed verdicts replayed from
	// the cache or the store).
	Bypassed int
	// StoreHits counts inputs answered from the on-disk verdict store.
	StoreHits int
	// Duration is the wall-clock time of the scan.
	Duration time.Duration
	// Stages is the per-stage timing/bytes breakdown, in pipeline order.
	// It is nil unless the scan ran with ScanOptions.StageStats or with the
	// obs registry enabled. Stage durations are summed across workers and
	// cover every scanned file, including ones a cancelled scan never
	// emitted.
	Stages []StageStats
}

// FilesPerSec returns the scan throughput in files per second.
func (s ScanStats) FilesPerSec() float64 {
	if s.Duration <= 0 {
		return 0
	}
	return float64(s.Files) / s.Duration.Seconds()
}

// BytesPerSec returns the scan throughput in source bytes per second.
func (s ScanStats) BytesPerSec() float64 {
	if s.Duration <= 0 {
		return 0
	}
	return float64(s.Bytes) / s.Duration.Seconds()
}

// Scanner runs both detectors (and optionally the indicator rules) over
// batches of files with one parse per file. A Scanner is safe for concurrent
// use; each ScanBatch/ScanStream call scans on its calling goroutine plus
// up to Workers-1 helpers of its own, all gone before the call returns.
type Scanner struct {
	l1, l2 *Detector
	// ext is the shared extractor: both detectors were validated to use the
	// same feature layout, so one vector per file feeds both.
	ext  *features.Extractor
	opts ScanOptions
	// cache is the content-hash dedup cache; nil unless opts.Dedup is set.
	cache *dedupCache
	// vstore is the persistent verdict store; nil unless the options carry
	// one. storeSalt folds the model identity (both serialized models) and
	// the triage configuration into every store key, so a shared store
	// directory can never serve a verdict this scanner would not produce.
	vstore    *store.Store
	storeSalt [sha256.Size]byte
}

// NewScanner validates that l1 and l2 are the expected levels with matching
// feature layouts and builds the batch engine around them.
func NewScanner(l1, l2 *Detector, opts ScanOptions) (*Scanner, error) {
	if err := l1.ValidateLabels(Level1Labels); err != nil {
		return nil, fmt.Errorf("core: level 1 model: %w", err)
	}
	if err := l2.ValidateLabels(Level2Labels()); err != nil {
		return nil, fmt.Errorf("core: level 2 model: %w", err)
	}
	if o1, o2 := l1.extractor.Options(), l2.extractor.Options(); o1 != o2 {
		return nil, fmt.Errorf("core: detectors use different feature options (%+v vs %+v); they cannot share a parse", o1, o2)
	}
	s := &Scanner{l1: l1, l2: l2, ext: l1.extractor, opts: opts}
	if opts.Dedup {
		s.cache = newDedupCache(opts.DedupCapacity)
	}
	if opts.VerdictStore != nil {
		s.vstore = opts.VerdictStore
		// The salt is a digest of everything a stored verdict depends on
		// besides the content: the serialized models (weights, not just
		// layout) and the cascade configuration. Serializing the models once
		// at construction costs milliseconds and buys the guarantee that a
		// retrained model silently misses instead of silently lying.
		h := sha256.New()
		if err := l1.Save(h); err != nil {
			return nil, fmt.Errorf("core: fingerprint level 1 model: %w", err)
		}
		if err := l2.Save(h); err != nil {
			return nil, fmt.Errorf("core: fingerprint level 2 model: %w", err)
		}
		fmt.Fprintf(h, "triage:%v:%+v;explain:%v;force2:%v",
			opts.Triage, opts.TriageConfig, opts.Explain, opts.ForceLevel2)
		h.Sum(s.storeSalt[:0])
	}
	return s, nil
}

// scanOne classifies one input through the cascade: in-memory dedup cache,
// then the on-disk verdict store, then the stage-0 triage router, then the
// full pipeline. Parse failures are cached and persisted too: the same bytes
// fail the same way. ps is the calling worker's reusable parser session.
func (s *Scanner) scanOne(in Input, acc *stageAcc, ps *parser.Session, fs *flow.Session) FileResult {
	if s.cache == nil && s.vstore == nil && !s.opts.Triage {
		return s.scanFile(in, acc, ps, fs)
	}
	var key dedupKey
	if s.cache != nil || s.vstore != nil {
		key = hashSource(in.Source)
	}
	if s.cache != nil {
		if r, ok := s.cache.get(key); ok {
			r.Path = in.Path
			r.Deduped = true
			return r
		}
	}
	if s.vstore != nil {
		if raw, ok := s.vstore.Get(s.storeKey(key)); ok {
			if r, err := decodeVerdict(raw); err == nil {
				obs.Add("scan.store.hit", 1)
				r.Path = in.Path
				r.Bytes = len(in.Source)
				r.FromStore = true
				s.cachePut(key, r)
				return r
			}
			// Undecodable (written by another codec version): treat as a
			// miss and overwrite with a fresh verdict below.
		}
		obs.Add("scan.store.miss", 1)
	}
	if s.opts.Triage {
		if d, _ := triage.Route(in.Source, s.opts.TriageConfig); d.Bypassed() {
			obs.Add("scan.triage.bypass", 1)
			out := FileResult{Path: in.Path, Bytes: len(in.Source), Bypassed: true}
			if d == triage.BypassMinified {
				out.Level1 = Level1Result{Minified: 1}
			} else {
				out.Level1 = Level1Result{Regular: 1}
			}
			s.persist(key, out)
			s.cachePut(key, out)
			return out
		}
		obs.Add("scan.triage.escalate", 1)
	}
	out := s.scanFile(in, acc, ps, fs)
	s.persist(key, out)
	s.cachePut(key, out)
	return out
}

// cachePut stores a completed result in the dedup cache. The Path is
// stripped (hits stamp their own) and so is FromStore: a memory replay of a
// store hit is a cache hit, not another store hit.
func (s *Scanner) cachePut(key dedupKey, r FileResult) {
	if s.cache == nil {
		return
	}
	r.Path = ""
	r.FromStore = false
	s.cache.put(key, r)
}

// persist writes a completed verdict to the store, best-effort: an encode or
// append failure costs a future rescan of the same content, never a wrong
// answer, so the scan does not abort on it.
func (s *Scanner) persist(key dedupKey, r FileResult) {
	if s.vstore == nil {
		return
	}
	raw, err := encodeVerdict(r)
	if err != nil {
		return
	}
	_ = s.vstore.Put(s.storeKey(key), raw)
}

// storeKey derives the verdict-store key for a content hash by folding in
// the scanner's model/config salt.
func (s *Scanner) storeKey(k dedupKey) store.Key {
	var in [len(k) + len(s.storeSalt)]byte
	copy(in[:], k[:])
	copy(in[len(k):], s.storeSalt[:])
	return sha256.Sum256(in[:])
}

// StoreStats reports the verdict store's state; ok is false when the Scanner
// runs without one.
func (s *Scanner) StoreStats() (stats store.Stats, ok bool) {
	if s.vstore == nil {
		return store.Stats{}, false
	}
	return s.vstore.Stats(), true
}

// scanFile classifies one input: its feature vector and (under Explain) its
// diagnostics come from extractFile, and both detectors run on that one
// vector. acc, when non-nil, receives the per-stage cost breakdown.
func (s *Scanner) scanFile(in Input, acc *stageAcc, ps *parser.Session, fs *flow.Session) FileResult {
	out := FileResult{Path: in.Path, Bytes: len(in.Source)}
	t := newStageTimer(acc, len(in.Source))
	vec, diags, err := extractFile(s.ext, in.Source, s.opts.Explain, ps, fs, &t)
	if err != nil {
		out.Err = err
		return out
	}
	out.Level1 = level1FromProbs(s.l1.ProbsVec(vec))
	if out.Level1.IsTransformed() || s.opts.ForceLevel2 {
		r := Level2FromProbs(s.l2.ProbsVec(vec))
		out.Level2 = &r
	}
	t.tick(stageInfer)
	if s.opts.Explain {
		out.Diagnostics = diags
	}
	return out
}

// extractFile is the paper's per-file pipeline up to the feature vector
// (Section III): one parse, the control and data flow over it, the
// indicator rules when explain is set or the layout carries rule features,
// then the 4-gram and hand-picked features. It is the only place that
// sequences these stages; the scanner adds inference on top, and
// ExtractBatch serves training and feature importance. t ticks the parse,
// flow, rules and features stages. ps and fs are the calling worker's
// sessions: the session-backed AST and graph are consumed before this call
// returns, and nothing it returns retains them.
func extractFile(ext *features.Extractor, src string, explain bool, ps *parser.Session, fs *flow.Session, t *stageTimer) (features.Vector, []analysis.Diagnostic, error) {
	res, err := ps.ParseNoTokens(src)
	t.tick(stageParse)
	if err != nil {
		return nil, nil, fmt.Errorf("parse: %w", err)
	}
	g := ext.FlowSession(fs, res)
	t.tick(stageFlow)
	var diags []analysis.Diagnostic
	if explain || ext.Options().RuleFeatures {
		diags = analysis.AnalyzeParsed(src, res, g)
		t.tick(stageRules)
	}
	vec := ext.ExtractFull(src, res, g, diags)
	t.tick(stageFeatures)
	return vec, diags, nil
}

// ExtractBatch computes every input's feature vector with ext through the
// scan's per-file pipeline, on GOMAXPROCS workers that each hold one parser
// session and one flow session. Row i of the result is input i's vector, so
// the output does not depend on scheduling. The error names the first input,
// in input order, that did not parse.
func ExtractBatch(ext *features.Extractor, inputs []Input) ([][]float64, error) {
	x := make([][]float64, len(inputs))
	errs := make([]error, len(inputs))
	claims := par.NewCounter(len(inputs))
	par.Run(par.Size(0, len(inputs)), func(int) {
		ps, fs := parser.NewSession(), flow.NewSession()
		var t stageTimer
		for i, ok := claims.Claim(); ok; i, ok = claims.Claim() {
			x[i], _, errs[i] = extractFile(ext, inputs[i].Source, false, ps, fs, &t)
		}
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("%s: %w", inputs[i].Path, err)
		}
	}
	return x, nil
}

// ScanStream classifies inputs and calls emit once per input, in input
// order. The calling goroutine scans too: between its own files it emits
// every result that is ready and whose predecessors have all been emitted,
// and once no input is left to claim it waits for the other workers and
// emits the rest. emit runs on the calling goroutine. The returned stats
// cover the whole batch.
func (s *Scanner) ScanStream(inputs []Input, emit func(i int, r FileResult)) ScanStats {
	stats, _ := s.ScanStreamContext(context.Background(), inputs, emit)
	return stats
}

// ScanStreamContext is ScanStream with cooperative cancellation. Once ctx is
// cancelled, no worker claims a new input and a file finished after the
// cancellation is dropped; the call returns when every worker has. The
// emitter decides where the stream stops: it emits, in input order, the
// results finished before the cancellation up to the first input that has
// none, except that a cancel raised while emit runs (emit itself may cancel
// ctx) ends the stream right after that result. Either way the emitted
// results are a contiguous, input-ordered prefix, and stats cover only that
// prefix. The error is ctx.Err() when the prefix is short of the whole
// batch, nil otherwise.
func (s *Scanner) ScanStreamContext(ctx context.Context, inputs []Input, emit func(i int, r FileResult)) (ScanStats, error) {
	start := time.Now()
	n := len(inputs)
	var stats ScanStats
	if n == 0 || ctx.Err() != nil {
		stats.Duration = time.Since(start)
		return stats, ctx.Err()
	}

	var acc *stageAcc
	if s.opts.StageStats || obs.Enabled() {
		acc = &stageAcc{}
	}
	// A slot's result is published by the release store to ready; the
	// emitter reads it only after an acquire load sees the flag.
	type slot struct {
		r     FileResult
		ready atomic.Bool
	}
	slots := make([]slot, n)
	done := ctx.Done()
	cancelled := func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
	emitted := 0
	// stopped is set when ctx was cancelled while emit ran (emit itself may
	// cancel it): the stream then ends right after that result, however
	// many later results are ready.
	stopped := false
	emitReady := func() {
		for ; emitted < n && !stopped && slots[emitted].ready.Load(); emitted++ {
			r := slots[emitted].r
			stats.add(r)
			if emit != nil {
				before := cancelled()
				emit(emitted, r)
				stopped = !before && cancelled()
			}
		}
	}
	claims := par.NewCounter(n)
	par.Run(par.Size(s.opts.Workers, n), func(w int) {
		// One parser session and one flow session per worker: token
		// buffers, memo tables, lexer state, and the whole scope/flow
		// storage plane are reused across every file this worker scans.
		ps := parser.NewSession()
		fs := flow.NewSession()
		for !cancelled() {
			i, ok := claims.Claim()
			if !ok {
				return
			}
			r := s.scanOne(inputs[i], acc, ps, fs)
			if cancelled() {
				return // finished after the cancellation: not emitted
			}
			slots[i].r = r
			slots[i].ready.Store(true)
			if w == 0 {
				emitReady()
			}
		}
	})
	emitReady()
	var err error
	if emitted < n {
		err = ctx.Err()
	}
	if acc != nil {
		stats.Stages = acc.stats()
	}
	stats.Duration = time.Since(start)
	obs.Add("scan.files", int64(stats.Files))
	obs.Add("scan.bytes", stats.Bytes)
	return stats, err
}

// add counts one emitted result.
func (st *ScanStats) add(r FileResult) {
	st.Files++
	st.Bytes += int64(r.Bytes)
	if r.Deduped {
		st.Deduped++
	}
	if r.Bypassed {
		st.Bypassed++
	}
	if r.FromStore {
		st.StoreHits++
	}
	switch {
	case r.Err != nil:
		st.ParseFailures++
	case r.Level1.IsTransformed():
		st.Transformed++
		if r.Level1.IsMinified() {
			st.Minified++
		}
		if r.Level1.IsObfuscated() {
			st.Obfuscated++
		}
	default:
		st.Regular++
	}
}

// ScanBatch classifies inputs and returns one FileResult per input, in input
// order, plus the batch stats.
func (s *Scanner) ScanBatch(inputs []Input) ([]FileResult, ScanStats) {
	out := make([]FileResult, 0, len(inputs))
	stats, _ := s.ScanStreamContext(context.Background(), inputs, func(i int, r FileResult) { out = append(out, r) })
	return out, stats
}

// ScanBatchContext is ScanBatch with cooperative cancellation: on early
// cancellation the returned slice holds only the contiguous input-ordered
// prefix that finished before the cut, and the error is ctx.Err().
func (s *Scanner) ScanBatchContext(ctx context.Context, inputs []Input) ([]FileResult, ScanStats, error) {
	out := make([]FileResult, 0, len(inputs))
	stats, err := s.ScanStreamContext(ctx, inputs, func(i int, r FileResult) { out = append(out, r) })
	return out, stats, err
}
