package main

// The metric lists, by the names BENCHMARK.json fixes. A test checks
// the two agree.

type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the metrics a user of the service sees, reported by
// every workload, each with the share of the parent's median it may
// worsen by. A bound is about three times the widest spread the metric
// showed across ten seeds on the seed commit (README, "Noise floor"),
// capped at the contract's 0.25.
//
// Three of the issue's nine are not here. failed_share is 0 on a
// healthy run (the contract wants metrics that are never 0) and is
// carried by the result's attempted/failed counts; above
// failedShareBound the run exits non-zero. ingest_p95_ms exists on one
// workload only. paced_p95_ms differs between runs of the same code by
// more than 0.10, so by the issue's own rule it is demoted, under the
// same name, to the per-layer list instead of having its bound widened.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"search_qps", "1/s", "higher", 0.25},
	{"search_p50_ms", "ms", "lower", 0.25},
	{"search_p95_ms", "ms", "lower", 0.25},
	{"retrieval_rate", "ratio", "higher", 0.08},
	{"heap_live_mb", "MB", "lower", 0.25},
}

// perLayer are the single-layer metrics (layer = module name). A metric
// that does not exist on a workload is printed n/a and reported as 0.
var perLayer = []metricDef{
	{"paced_p95_ms", "ms", "lower", 0},
	{"ingest_p95_ms", "ms", "lower", 0},
	{"range_p95_ms", "ms", "lower", 0},

	{"net.self_us", "us", "lower", 0},
	{"net.req_bytes", "B", "lower", 0},
	{"net.resp_bytes", "B", "lower", 0},

	{"router.span_us", "us", "lower", 0},
	{"router.self_us", "us", "lower", 0},
	{"router.self_share", "ratio", "lower", 0},
	{"router.attempts_per_req", "count", "lower", 0},
	{"router.hedges_per_kreq", "count", "lower", 0},
	{"router.hedge_wins_per_kreq", "count", "higher", 0},
	{"router.retries", "count", "lower", 0},
	{"router.shed", "count", "lower", 0},

	{"httpapi.span_us", "us", "lower", 0},
	{"httpapi.self_us", "us", "lower", 0},
	{"httpapi.self_share", "ratio", "lower", 0},
	{"httpapi.resp_bytes_per_match", "B", "lower", 0},
	{"httpapi.ingest_span_us", "us", "lower", 0},
	{"httpapi.status_4xx", "count", "lower", 0},
	{"httpapi.status_5xx", "count", "lower", 0},

	{"core.search_us", "us", "lower", 0},
	{"core.plan_us", "us", "lower", 0},
	{"core.refine_us", "us", "lower", 0},
	{"core.plan.descent_nodes", "count", "lower", 0},
	{"core.plan.filter_iters", "count", "lower", 0},
	{"core.plan.blocks", "count", "lower", 0},
	{"core.plan.intervals", "count", "lower", 0},
	{"core.refine.candidates", "count", "lower", 0},
	{"core.refine.matches", "count", "lower", 0},
	{"core.refine.useful_ratio", "ratio", "higher", 0},
	{"core.plancache.hit_rate", "ratio", "higher", 0},
	{"core.plancache.evictions", "count", "lower", 0},
	{"core.live.segments_per_query", "count", "lower", 0},
	{"core.live.sketch_skip_rate", "ratio", "higher", 0},
	{"core.live.seals", "count", "lower", 0},
	{"core.live.compactions", "count", "lower", 0},
	{"core.live.seal_s", "s", "lower", 0},
	{"core.live.commit_s", "s", "lower", 0},
	{"core.live.compaction_s", "s", "lower", 0},
	{"core.live.segments_end", "count", "lower", 0},
	{"core.live.persist_retries", "count", "lower", 0},

	{"store.read_us", "us", "lower", 0},
	{"store.reads", "count", "lower", 0},
	{"store.read_bytes", "B", "lower", 0},
	{"store.blockcache.hit_rate", "ratio", "higher", 0},
	{"store.blockcache.evictions", "count", "lower", 0},
	{"store.blockcache.loaded_bytes", "B", "lower", 0},
	{"store.cold.skipped_blocks", "count", "higher", 0},
	{"store.cold.quantized_rejects", "count", "higher", 0},
	{"store.cold.fallback_reads", "count", "lower", 0},
	{"store.cold.bytes_saved", "B", "higher", 0},
	{"store.write_amp", "ratio", "lower", 0},
	{"store.space_amp", "ratio", "lower", 0},
	{"store.syncs_per_krecord", "count", "lower", 0},

	{"hilbert.encode_ns", "ns", "lower", 0},

	{"go.cpu_s_per_kquery", "s", "lower", 0},
	{"go.alloc_bytes_per_query", "B", "lower", 0},
	{"go.allocs_per_query", "count", "lower", 0},
	{"go.gc_pause_ms", "ms", "lower", 0},
	{"go.gc_cycles", "count", "lower", 0},

	{"harness.gen_s", "s", "lower", 0},
	{"harness.paced_late_p95_ms", "ms", "lower", 0},
	{"harness.trace_overhead_share", "ratio", "lower", 0},
}

// whyWorkload records why each workload exists (BENCHMARK.json carries
// the same lines).
var whyWorkload = map[string]string{
	wlResident: "static all-resident server, key-frame batches of fresh fingerprints: core planning and refinement do the work, store and router none, plan cache never hits",
	wlCold:     "cold segments behind a block cache of 10% of the records, batches half from a hot set beside range queries: store does the work, plan cache absorbs planning",
	wlFleet:    "router over 2 key-range groups x 2 replicas, single fresh fingerprints: httpapi codec, router scatter/merge and loopback net dominate, core is a minority",
	wlIngest:   "live index under a fixed-rate ingest+delete writer beside a key-frame reader: memtable, seal, manifest commit and compaction run only here",
}
