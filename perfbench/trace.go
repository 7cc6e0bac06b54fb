package main

import (
	"bufio"
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/flow"
	"repro/internal/js/lexer"
	"repro/internal/js/parser"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/transform"
	"repro/internal/triage"
)

// The traced run replays a workload with one worker through the layers'
// public functions, in the order core.Scanner calls them (dedup cache,
// verdict store, triage.Route, parse, flow, rules, features, inference),
// and times every call from outside the program. The program itself is
// not instrumented. Spans are kept in memory and written out when the run
// ends, to .bench_build/trace/.

// Layers of the ledger. core covers content hashing and the dedup LRU, the
// benchmark's model of core.Scanner's cascade bookkeeping.
const (
	layerCore = iota
	layerStore
	layerTriage
	layerLexer
	layerParser
	layerFlow
	layerAnalysis
	layerFeatures
	layerML
	layerService
	numLayers
)

var layerNames = [numLayers]string{"core", "store", "triage", "lexer", "parser", "flow", "analysis", "features", "ml", "service"}

// span is one timed call into a layer, in ns from the pass's start. Spans
// of one request share req; parent is the enclosing layer (-1 for none):
// the lexer's span is an estimate nested in the parser's.
type span struct {
	req           int32
	layer, parent int8
	start, dur    int64
}

// tracer collects spans and per-layer self time for one replay pass.
type tracer struct {
	origin time.Time
	spans  []span
	self   [numLayers]time.Duration
	// excluded is time the replay spent checking outputs, which is not on
	// the program's path; it is taken out of the wall.
	excluded time.Duration
}

// newTracer returns an empty tracer with room for about n spans.
func newTracer(n int) *tracer { return &tracer{origin: time.Now(), spans: make([]span, 0, n)} }

// record closes a span of layer that started at t0 and returns its end.
func (t *tracer) record(req, layer int, t0 time.Time) time.Time {
	now := time.Now()
	t.add(req, layer, -1, t0, now.Sub(t0))
	return now
}

func (t *tracer) add(req, layer, parent int, t0 time.Time, d time.Duration) {
	t.spans = append(t.spans, span{int32(req), int8(layer), int8(parent), int64(t0.Sub(t.origin)), int64(d)})
	t.self[layer] += d
	if parent >= 0 {
		t.self[parent] -= d
	}
}

func (t *tracer) total() time.Duration {
	var sum time.Duration
	for _, d := range t.self {
		sum += d
	}
	return sum
}

// writeSpans saves the spans of one pass as JSON lines.
func writeSpans(name string, t *tracer) error {
	dir := filepath.Join(".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".jsonl"))
	if err != nil {
		return err
	}
	type record struct {
		Req    int32  `json:"req"`
		Layer  string `json:"layer"`
		Parent string `json:"parent,omitempty"`
		Start  int64  `json:"start_ns"`
		Dur    int64  `json:"dur_ns"`
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		rec := record{Req: s.req, Layer: layerNames[s.layer], Start: s.start, Dur: s.dur}
		if s.parent >= 0 {
			rec.Parent = layerNames[s.parent]
		}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replayer re-implements core.Scanner's per-file cascade over the public
// layer functions. Its verdicts must be bit-identical to the Scanner's.
type replayer struct {
	l1, l2  *core.Detector
	ext     *features.Extractor
	opts    core.ScanOptions // Explain, ForceLevel2, Triage, TriageConfig
	lru     *lru             // nil without dedup
	st      *store.Store     // nil without a verdict store
	ps      *parser.Session
	fs      *flow.Session
	lexEst  []time.Duration // lex-only time per input index
	tr      *tracer
	nodes   int64
	fails   int64
	hits    int // dedup cache hits
	stHits  int // verdict store hits
	bypass  int // triage bypasses
	escalat int // triage escalations
}

func newReplayer(l1, l2 *core.Detector, opts core.ScanOptions, st *store.Store, lexEst []time.Duration, tr *tracer) *replayer {
	r := &replayer{
		l1: l1, l2: l2, ext: l1.Extractor(), opts: opts, st: st,
		ps: parser.NewSession(), fs: flow.NewSession(), lexEst: lexEst, tr: tr,
	}
	if opts.Dedup {
		r.lru = newLRU(opts.DedupCapacity)
	}
	return r
}

// scan classifies one input the way core.Scanner's scanOne does; idx
// indexes the input's lex-only estimate. Each span starts where the last
// one ended, so the only time outside spans is the loop around scan.
func (r *replayer) scan(req, idx int, in core.Input) core.FileResult {
	t := time.Now()
	var key [sha256.Size]byte
	if r.lru != nil || r.st != nil {
		key = sha256.Sum256([]byte(in.Source))
	}
	if r.lru != nil {
		if res, ok := r.lru.get(key); ok {
			r.hits++
			res.Path = in.Path
			res.Deduped = true
			r.tr.record(req, layerCore, t)
			return res
		}
	}
	t = r.tr.record(req, layerCore, t)
	if r.st != nil {
		raw, ok := r.st.Get(key)
		var res core.FileResult
		var err error
		if ok {
			res, err = decodeResult(raw)
		}
		t = r.tr.record(req, layerStore, t)
		if ok && err == nil {
			r.stHits++
			res.Path = in.Path
			res.Bytes = len(in.Source)
			res.FromStore = true
			r.cachePut(req, key, res, t)
			return res
		}
	}
	var out core.FileResult
	bypassed := false
	if r.opts.Triage {
		d, _ := triage.Route(in.Source, r.opts.TriageConfig)
		if d.Bypassed() {
			r.bypass++
			bypassed = true
			out = core.FileResult{Path: in.Path, Bytes: len(in.Source), Bypassed: true}
			if d == triage.BypassMinified {
				out.Level1 = core.Level1Result{Minified: 1}
			} else {
				out.Level1 = core.Level1Result{Regular: 1}
			}
		} else {
			r.escalat++
		}
		t = r.tr.record(req, layerTriage, t)
	}
	if !bypassed {
		out, t = r.pipeline(req, in, r.lexEst[idx], t)
	}
	if r.st != nil {
		_ = r.st.Put(key, encodeResult(&out)) // best-effort, as in core.Scanner
		t = r.tr.record(req, layerStore, t)
	}
	r.cachePut(req, key, out, t)
	return out
}

// cachePut stores a verdict in the dedup cache model, in a core span that
// starts at t.
func (r *replayer) cachePut(req int, key [sha256.Size]byte, res core.FileResult, t time.Time) {
	if r.lru == nil {
		return
	}
	res.Path = ""
	res.FromStore = false
	r.lru.put(key, res)
	r.tr.record(req, layerCore, t)
}

// pipeline is core.Scanner's scanFile: parse, flow, rules, features, infer,
// timed from t; it returns the verdict and when it was done. lexD, the
// file's lex-only time, estimates the lexer's share of the parse: it is
// recorded as a span nested in the parse's.
func (r *replayer) pipeline(req int, in core.Input, lexD time.Duration, t time.Time) (core.FileResult, time.Time) {
	out := core.FileResult{Path: in.Path, Bytes: len(in.Source)}
	res, err := r.ps.ParseNoTokens(in.Source)
	end := r.tr.record(req, layerParser, t)
	r.tr.add(req, layerLexer, layerParser, t, min(lexD, end.Sub(t)))
	t = end
	if err != nil {
		r.fails++
		out.Err = fmt.Errorf("parse: %w", err)
		return out, t
	}
	r.nodes += int64(res.Program.NodeCount)
	g := r.ext.FlowSession(r.fs, res)
	t = r.tr.record(req, layerFlow, t)
	var diags []analysis.Diagnostic
	if r.opts.Explain || r.ext.Options().RuleFeatures {
		diags = analysis.AnalyzeParsed(in.Source, res, g)
		t = r.tr.record(req, layerAnalysis, t)
	}
	vec := r.ext.ExtractFull(in.Source, res, g, diags)
	t = r.tr.record(req, layerFeatures, t)
	out.Level1 = core.Level1FromProbs(r.l1.ProbsVec(vec))
	if out.Level1.IsTransformed() || r.opts.ForceLevel2 {
		l2 := core.Level2FromProbs(r.l2.ProbsVec(vec))
		out.Level2 = &l2
	}
	if r.opts.Explain {
		out.Diagnostics = diags
	}
	return out, r.tr.record(req, layerML, t)
}

// lexEstimates times a lex-only pass over every input, the lexer's share of
// each file's parse. The passes run apart from the replay so they neither
// add to its wall nor warm the caches its parse would find cold; each file
// is lexed twice and the second time kept.
func lexEstimates(inputs []core.Input) []time.Duration {
	l := lexer.New("")
	out := make([]time.Duration, len(inputs))
	for i, in := range inputs {
		for k := 0; k < 2; k++ {
			t := time.Now()
			lexOnly(l, in.Source)
			out[i] = time.Since(t)
		}
	}
	return out
}

// lexOnly tokenizes src to the end (or the first lexical error) with the
// lexer alone and returns the number of tokens it scanned. Template
// substitutions are followed the way the parser follows them: a '}' that
// closes a substitution is re-scanned as the template's continuation.
func lexOnly(l *lexer.Lexer, src string) int {
	l.Reset(src)
	var tok lexer.Token
	var open []int // brace depth at each open template substitution
	depth, n := 0, 0
	for {
		if err := l.NextInto(&tok); err != nil || tok.Kind == lexer.EOF {
			return n
		}
		n++
		switch {
		case tok.Kind == lexer.TemplateHead:
			open = append(open, depth)
		case tok.IsPunct("{"):
			depth++
		case tok.IsPunct("}"):
			if k := len(open); k > 0 && open[k-1] == depth {
				cont, err := l.RescanTemplateContinue(tok)
				if err != nil {
					return n
				}
				if cont.Kind == lexer.TemplateTail {
					open = open[:k-1]
				}
				continue
			}
			depth--
		}
	}
}

// lru is the dedup cache model: the same capacity and eviction order as
// core.Scanner's content-hash LRU.
type lru struct {
	cap   int
	order *list.List
	items map[[sha256.Size]byte]*list.Element
}

type lruEntry struct {
	key [sha256.Size]byte
	res core.FileResult
}

func newLRU(capacity int) *lru {
	if capacity <= 0 {
		capacity = core.DefaultDedupCapacity
	}
	return &lru{cap: capacity, order: list.New(), items: map[[sha256.Size]byte]*list.Element{}}
}

func (c *lru) get(k [sha256.Size]byte) (core.FileResult, bool) {
	el, ok := c.items[k]
	if !ok {
		return core.FileResult{}, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).res, true
}

func (c *lru) put(k [sha256.Size]byte, r core.FileResult) {
	if el, ok := c.items[k]; ok {
		el.Value.(*lruEntry).res = r
		c.order.MoveToFront(el)
		return
	}
	c.items[k] = c.order.PushFront(&lruEntry{key: k, res: r})
	if c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry).key)
	}
}

// encodeResult is the replay's verdict-store value: the verdict's bits,
// losslessly. (core.Scanner's own codec is internal to it; the replay
// stores its own values in its own store directory.)
func encodeResult(r *core.FileResult) []byte {
	var b []byte
	flags := byte(0)
	if r.Err != nil {
		flags |= 1
	}
	if r.Bypassed {
		flags |= 2
	}
	if r.Level2 != nil {
		flags |= 4
	}
	b = append(b, flags)
	if r.Err != nil {
		return append(b, r.Err.Error()...)
	}
	for _, p := range []float64{r.Level1.Regular, r.Level1.Minified, r.Level1.Obfuscated} {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p))
	}
	if r.Level2 != nil {
		for _, p := range r.Level2.Ranked {
			b = append(b, byte(p.Technique))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p.Probability))
		}
	}
	return b
}

func decodeResult(b []byte) (core.FileResult, error) {
	var r core.FileResult
	if len(b) == 0 {
		return r, errors.New("empty value")
	}
	flags, b := b[0], b[1:]
	r.Bypassed = flags&2 != 0
	if flags&1 != 0 {
		r.Err = errors.New(string(b))
		return r, nil
	}
	if len(b) < 24 {
		return r, errors.New("short value")
	}
	f := func() float64 {
		v := math.Float64frombits(binary.LittleEndian.Uint64(b))
		b = b[8:]
		return v
	}
	r.Level1 = core.Level1Result{Regular: f(), Minified: f(), Obfuscated: f()}
	if flags&4 != 0 {
		l2 := core.Level2Result{}
		for len(b) >= 9 {
			t := transform.Technique(b[0])
			b = b[1:]
			l2.Ranked = append(l2.Ranked, core.TechniquePrediction{Technique: t, Probability: f()})
		}
		r.Level2 = &l2
	}
	return r, nil
}

// Ledger ----------------------------------------------------------------------

// stageTolerance bounds how far a replayed stage's share of the summed
// stage time may sit from that stage's share in the Scanner's own
// ScanStats.Stages. Shares, not absolute times, are compared: the two come
// from separate passes, and the shared host's speed drifts between passes
// by more than any real difference between replay and program (that drift
// scales every stage alike and shows in trace.overhead_ratio instead).
const stageTolerance = 0.08

// reconcileFloor is the ledger target: the layers' summed self time must
// cover at least this share of the traced wall.
const reconcileFloor = 0.95

// overheadRange bounds trace.overhead_ratio per workload: the traced
// replay's wall over the untraced program's for the same work, measured in
// alternating pairs. The replay calls the same layer functions plus a clock
// read per span, so on bundles and service it costs what the program does
// (measured 0.95-1.08); on crawl its verdict store holds the replay's own
// compact binary values instead of the scanner's JSON, which makes it
// cheaper (measured 0.74-0.88, its store I/O making it the least steady).
// A replay that drifts from the program — skipping work it does, or doing
// work it does not — moves the ratio out of range and fails the run.
var overheadRange = map[string][2]float64{
	"bundles": {0.85, 1.20},
	"crawl":   {0.60, 1.05},
	"service": {0.85, 1.20},
}

// stageOfLayer maps ScanStats.Stages names to the replay layers timing the
// same calls; the parser's total includes its nested lexer estimate.
var stageOfLayer = map[string][]int{
	"parse":    {layerParser, layerLexer},
	"flow":     {layerFlow},
	"rules":    {layerAnalysis},
	"features": {layerFeatures},
	"infer":    {layerML},
}

// stageDeviation returns the largest difference between a stage's share of
// the replay's summed stage time and its share of ScanStats.Stages, printing
// the comparison to standard error.
func stageDeviation(tr *tracer, stages []core.StageStats) float64 {
	replay := map[string]time.Duration{}
	var replayTotal, total time.Duration
	for name, layers := range stageOfLayer {
		for _, l := range layers {
			replay[name] += tr.self[l]
		}
		replayTotal += replay[name]
	}
	scanner := map[string]time.Duration{}
	for _, s := range stages {
		scanner[s.Stage] = s.Duration
		total += s.Duration
	}
	if total == 0 || replayTotal == 0 {
		return 0
	}
	worst := 0.0
	for _, name := range []string{"parse", "flow", "rules", "features", "infer"} {
		rs, ss := float64(replay[name])/float64(replayTotal), float64(scanner[name])/float64(total)
		fmt.Fprintf(os.Stderr, "perfbench: stage %-8s replay %9.2f ms (%5.1f%%), ScanStats.Stages %9.2f ms (%5.1f%%)\n",
			name, ms(replay[name]), 100*rs, ms(scanner[name]), 100*ss)
		worst = math.Max(worst, math.Abs(rs-ss))
	}
	return worst
}

// ledger fills the per-layer busy times and the trace validity metrics from
// the median replay pass. wall is that pass's traced wall (excluded
// measurement work already taken out); overhead is traced wall / untraced
// wall for the same work (see replayPasses). The self times add up to the
// traced wall by construction, since every span starts where the last one
// ended; what holds the replay to the program is the overhead ratio, which
// must stay within the workload's overheadRange.
func ledger(o *outcome, workload string, tr *tracer, wall time.Duration, overhead float64, stages []core.StageStats) {
	for l := 0; l < numLayers; l++ {
		o.metrics[layerNames[l]+".busy_ms"] = ms(tr.self[l])
	}
	o.metrics["trace.overhead_ratio"] = overhead
	lim := overheadRange[workload]
	o.check(overhead >= lim[0] && overhead <= lim[1],
		"ledger: the traced replay took %.3f times the untraced program's wall, want %.2f to %.2f", overhead, lim[0], lim[1])
	reconcile := tr.total().Seconds() / wall.Seconds()
	o.metrics["trace.reconcile_ratio"] = reconcile
	o.check(reconcile >= reconcileFloor && reconcile <= 1.0001,
		"ledger: layer self time covers %.3f of the traced wall, want >= %.2f", reconcile, reconcileFloor)
	dev := stageDeviation(tr, stages)
	o.metrics["trace.stage_max_dev"] = dev
	o.check(dev <= stageTolerance, "ledger: a replayed stage's share of stage time differs by %.3f from ScanStats.Stages, tolerance %.2f", dev, stageTolerance)
}

// counters runs fn with a fresh obs registry installed and returns it.
func counters(fn func()) *obs.Registry {
	reg := obs.NewRegistry()
	prev := obs.Swap(reg)
	defer obs.Swap(prev)
	fn()
	return reg
}

func count(reg *obs.Registry, name string) float64 { return float64(reg.Counter(name).Value()) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerCounts fills the exact work counts from a registry that recorded one
// pass of the 1-worker scanner.
func layerCounts(o *outcome, reg *obs.Registry) {
	o.metrics["lexer.tokens"] = count(reg, "lex.tokens")
	o.metrics["parser.failures"] = count(reg, "parse.errors")
	o.metrics["flow.data_edges"] = count(reg, "flow.data_edges")
	o.metrics["flow.deadline_hits"] = count(reg, "flow.dataflow_timeouts")
	o.metrics["analysis.diagnostics"] = count(reg, "analysis.diagnostics")
	o.metrics["features.vectors"] = count(reg, "features.vectors")
	o.metrics["ml.tree_evals"] = count(reg, "ml.tree_evals")
	bypass, escalate := count(reg, "scan.triage.bypass"), count(reg, "scan.triage.escalate")
	o.metrics["triage.bypass_ratio"] = ratio(bypass, bypass+escalate)
	hit, miss := count(reg, "scan.cache.hit"), count(reg, "scan.cache.miss")
	o.metrics["core.dedup_hit_ratio"] = ratio(hit, hit+miss)
	shit, smiss := count(reg, "scan.store.hit"), count(reg, "scan.store.miss")
	o.metrics["store.hit_ratio"] = ratio(shit, shit+smiss)
}

// checkReplayCounts holds the replay's cascade decisions to the 1-worker
// scanner's exact counters: the same files must be answered by the same
// tier.
func checkReplayCounts(o *outcome, r *replayer, reg *obs.Registry) {
	for _, c := range []struct {
		name string
		got  int
	}{
		{"scan.cache.hit", r.hits},
		{"scan.store.hit", r.stHits},
		{"scan.triage.bypass", r.bypass},
		{"scan.triage.escalate", r.escalat},
		{"parse.errors", int(r.fails)},
	} {
		want := int(reg.Counter(c.name).Value())
		o.check(c.got == want, "replay answered %d files via %s, the scanner %d", c.got, c.name, want)
	}
}

// unsetMetrics zeroes the per-layer metrics a workload does not exercise,
// so every traced run reports the full per-layer vocabulary.
func unsetMetrics(o *outcome, names ...string) {
	for _, n := range names {
		if _, ok := o.metrics[n]; !ok {
			o.metrics[n] = 0
		}
	}
}

// replayPasses alternates an untraced run of the program with a traced
// replay pass of the same work, for half the run's budget (three to nine
// pairs, the first pair untimed as warm-up). Pairing the two makes their
// ratio, trace.overhead_ratio, immune to the host's speed drifting between
// passes. It checks every pass's verdicts, writes the spans of the pass
// with the median wall, and returns that pass's tracer, traced wall and
// replayer, and the median over pairs of traced wall / untraced wall.
func replayPasses(e *env, name string, spans int, untraced func() (time.Duration, error), pass func(*tracer) (*replayer, []core.FileResult, error), check func([]core.FileResult)) (*tracer, time.Duration, float64, *replayer, error) {
	type result struct {
		tr   *tracer
		wall time.Duration
		r    *replayer
	}
	var passes []result
	var ratios []float64
	deadline := time.Now().Add(e.budget / 2)
	for i := 0; i < 3 || (time.Now().Before(deadline) && i < 9); i++ {
		plain, err := untraced()
		if err != nil {
			return nil, 0, 0, nil, err
		}
		tr := newTracer(spans)
		t0 := time.Now()
		r, res, err := pass(tr)
		if err != nil {
			return nil, 0, 0, nil, err
		}
		wall := time.Since(t0) - tr.excluded
		check(res)
		if i > 0 {
			passes = append(passes, result{tr, wall, r})
			ratios = append(ratios, wall.Seconds()/plain.Seconds())
		}
	}
	walls := make([]float64, len(passes))
	for i, p := range passes {
		walls[i] = p.wall.Seconds()
	}
	m := median(walls)
	best := passes[0]
	for _, p := range passes {
		if math.Abs(p.wall.Seconds()-m) < math.Abs(best.wall.Seconds()-m) {
			best = p
		}
	}
	if err := writeSpans(fmt.Sprintf("%s-seed%d", name, e.seed), best.tr); err != nil {
		return nil, 0, 0, nil, fmt.Errorf("write spans: %w", err)
	}
	return best.tr, best.wall, median(ratios), best.r, nil
}
