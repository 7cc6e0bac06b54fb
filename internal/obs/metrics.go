// Code generated by `go run ./cmd/jslint -gen-metrics`; DO NOT EDIT names.
// Help strings are preserved across regeneration — edit them here.
//
// This file is the checked-in manifest of every metric name the pipeline
// records: the `-metrics` surface of jsdetect is exactly this list. Two
// guards keep it honest: the jslint obs-literal analyzer rejects any
// obs.Add/obs.Observe/obs.Time call whose name is not listed here, and
// TestMetricsManifestInSync regenerates the file from the tree and fails on
// any drift (a metric recorded anywhere but missing here, or a stale entry
// no call site records anymore).

package obs

// Metric documents one registry instrument.
type Metric struct {
	// Name is the dotted-lowercase registry name.
	Name string
	// Kind is "counter" or "histogram".
	Kind string
	// Unit is what a histogram's values measure; empty for counters.
	Unit Unit
	// Help is a one-line human description.
	Help string
}

// Metrics is the manifest of every metric the pipeline records, sorted by
// name.
var Metrics = []Metric{
	{Name: "analysis.diagnostics", Kind: "counter", Help: "indicator diagnostics emitted across all rule runs"},
	{Name: "analysis.run", Kind: "histogram", Unit: UnitNanoseconds, Help: "per-file static indicator engine time"},
	{Name: "analysis.runs", Kind: "counter", Help: "static indicator engine runs (one per analyzed file)"},
	{Name: "features.extract", Kind: "histogram", Unit: UnitNanoseconds, Help: "per-file feature extraction time"},
	{Name: "features.vectors", Kind: "counter", Help: "feature vectors extracted"},
	{Name: "flow.build", Kind: "histogram", Unit: UnitNanoseconds, Help: "per-file flow graph construction time"},
	{Name: "flow.control_edges", Kind: "counter", Help: "control-flow edges counted"},
	{Name: "flow.data_edges", Kind: "counter", Help: "data-flow edges counted"},
	{Name: "flow.graphs", Kind: "counter", Help: "flow graphs built"},
	{Name: "flow.scope.bindings", Kind: "counter", Help: "bindings resolved by the fused scope walk"},
	{Name: "flow.walk.fused", Kind: "counter", Help: "fused scope+control traversals (one per flow build)"},
	{Name: "lex.comments", Kind: "counter", Help: "comments collected while lexing"},
	{Name: "lex.tokens", Kind: "counter", Help: "tokens produced by the lexer, including re-scans"},
	{Name: "lex.tokens_rescanned", Kind: "counter", Help: "tokens re-scanned after parser backtracking"},
	{Name: "ml.predict", Kind: "histogram", Unit: UnitNanoseconds, Help: "per-prediction forest chain time"},
	{Name: "ml.predictions", Kind: "counter", Help: "forest-chain predictions served"},
	{Name: "ml.tree_evals", Kind: "counter", Help: "individual decision-tree evaluations"},
	{Name: "parse.bytes", Kind: "counter", Help: "source bytes parsed"},
	{Name: "parse.duration", Kind: "histogram", Unit: UnitNanoseconds, Help: "per-file parse time"},
	{Name: "parse.errors", Kind: "counter", Help: "files that failed to parse"},
	{Name: "parse.file_bytes", Kind: "histogram", Unit: UnitBytes, Help: "parsed file sizes"},
	{Name: "parse.files", Kind: "counter", Help: "files parsed"},
	{Name: "parse.tokens", Kind: "counter", Help: "tokens consumed by the parser"},
	{Name: "scan.bytes", Kind: "counter", Help: "source bytes scanned by the batch engine"},
	{Name: "scan.cache.evict", Kind: "counter", Help: "dedup cache evictions (LRU capacity reached)"},
	{Name: "scan.cache.hit", Kind: "counter", Help: "scans answered from the content-hash dedup cache"},
	{Name: "scan.cache.miss", Kind: "counter", Help: "dedup cache lookups that ran the full pipeline"},
	{Name: "scan.files", Kind: "counter", Help: "files scanned by the batch engine"},
	{Name: "scan.stage.features", Kind: "histogram", Unit: UnitNanoseconds, Help: "per-file time in the features pipeline stage"},
	{Name: "scan.stage.flow", Kind: "histogram", Unit: UnitNanoseconds, Help: "per-file time in the flow pipeline stage"},
	{Name: "scan.stage.infer", Kind: "histogram", Unit: UnitNanoseconds, Help: "per-file time in the infer pipeline stage"},
	{Name: "scan.stage.parse", Kind: "histogram", Unit: UnitNanoseconds, Help: "per-file time in the parse pipeline stage"},
	{Name: "scan.stage.rules", Kind: "histogram", Unit: UnitNanoseconds, Help: "per-file time in the rules pipeline stage"},
	{Name: "scan.store.hit", Kind: "counter", Help: "scans answered from the on-disk verdict store"},
	{Name: "scan.store.miss", Kind: "counter", Help: "verdict-store lookups that fell through to triage or the pipeline"},
	{Name: "scan.triage.bypass", Kind: "counter", Help: "files the stage-0 triage router bypassed around the full pipeline"},
	{Name: "scan.triage.escalate", Kind: "counter", Help: "files the stage-0 triage router escalated to the full pipeline"},
	{Name: "service.queue.depth", Kind: "histogram", Unit: UnitCount, Help: "job-queue occupancy sampled at each enqueue attempt"},
	{Name: "service.queue.wait", Kind: "histogram", Unit: UnitNanoseconds, Help: "time a scan job spent queued before a worker picked it up"},
	{Name: "service.rejects", Kind: "counter", Help: "scan requests rejected with 429 because the job queue was full"},
	{Name: "service.request.duration", Kind: "histogram", Unit: UnitNanoseconds, Help: "wall time of one POST /v1/scan request, queue wait included"},
	{Name: "service.requests", Kind: "counter", Help: "scan requests accepted for parsing by the service"},
}

// metricNames indexes the manifest for KnownMetric.
var metricNames = func() map[string]bool {
	m := make(map[string]bool, len(Metrics))
	for _, mt := range Metrics {
		m[mt.Name] = true
	}
	return m
}()

// KnownMetric reports whether name is registered in the manifest. The jslint
// obs-literal analyzer calls it for every metric-name literal in the tree.
func KnownMetric(name string) bool { return metricNames[name] }
