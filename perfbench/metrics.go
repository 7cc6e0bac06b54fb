package main

// metricDef names one reported metric and its unit. The lists below are the
// benchmark's vocabulary, in the order BENCHMARK.json declares them;
// checkDeclared keeps the two in lockstep. README.md defines each metric
// per workload.
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"mb_per_s", "MB/s"},
	{"files_per_s", "files/s"},
	{"recrawl_files_per_s", "files/s"},
	{"peak_heap_mb", "MB"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"max_rps", "req/s"},
	{"l1_accuracy", "ratio"},
	{"l2_f1", "ratio"},
	{"ok_ratio", "ratio"},
}

// Per-layer metrics come from the traced run. busy_ms is a layer's self
// time summed over one replay pass (the median pass); counts are exact
// totals over one pass of the 1-worker scanner, read from the obs registry.
var perLayerMetrics = []metricDef{
	{"lexer.busy_ms", "ms"},
	{"lexer.tokens", "count"},
	{"parser.busy_ms", "ms"},
	{"parser.nodes", "count"},
	{"parser.failures", "count"},
	{"flow.busy_ms", "ms"},
	{"flow.data_edges", "count"},
	{"flow.deadline_hits", "count"},
	{"analysis.busy_ms", "ms"},
	{"analysis.diagnostics", "count"},
	{"features.busy_ms", "ms"},
	{"features.vectors", "count"},
	{"ml.busy_ms", "ms"},
	{"ml.tree_evals", "count"},
	{"triage.busy_ms", "ms"},
	{"triage.bypass_ratio", "ratio"},
	{"core.busy_ms", "ms"},
	{"core.dedup_hit_ratio", "ratio"},
	{"core.unattributed_ms", "ms"},
	{"store.busy_ms", "ms"},
	{"store.open_ms", "ms"},
	{"store.entries", "count"},
	{"store.hit_ratio", "ratio"},
	{"store.log_mb", "MB"},
	{"service.busy_ms", "ms"},
	{"service.queue_wait_p99_ms", "ms"},
	{"service.overhead_p50_ms", "ms"},
	{"service.rejects", "count"},
	{"gen.lag_p99_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.reconcile_ratio", "ratio"},
	{"trace.stage_max_dev", "ratio"},
}
