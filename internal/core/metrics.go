package core

import (
	"s3cbcd/internal/obs"
)

// queryMetrics are the executor's instruments: the plan/refine split
// of every query (the paper's filtering vs refinement cost), the
// partition-tree work the planner performs, and the selectivity of the
// plans it emits. They are created unregistered with the executor —
// updating them is a few atomics, so it always counts — and published
// into a registry by RegisterMetrics on the Engine or LiveIndex that
// embeds it (one per registry). The families keep their s3_engine_
// prefix from when only the static engine had them.
type queryMetrics struct {
	plans         *obs.Counter
	descentNodes  *obs.Counter
	planSeconds   *obs.Histogram
	planBlocks    *obs.Histogram
	refineSeconds *obs.Histogram
	candidates    *obs.Counter
	statQueries   *obs.Counter
	rangeQueries  *obs.Counter
	knnQueries    *obs.Counter
	batchQueries  *obs.Counter
	inflight      *obs.Gauge
}

func newQueryMetrics() queryMetrics {
	return queryMetrics{
		plans: obs.NewCounter("s3_engine_plans_total",
			"plans computed (statistical and geometric, batch included)"),
		descentNodes: obs.NewCounter("s3_engine_descent_nodes_total",
			"partition-tree nodes visited by planning (the filtering-step work the frontier planner minimizes)"),
		planSeconds: obs.NewHistogram("s3_engine_plan_seconds",
			"wall time of the filtering step (one plan)", obs.LatencyBuckets()),
		planBlocks: obs.NewHistogram("s3_engine_plan_blocks",
			"p-blocks selected per plan (card of B_alpha)", obs.SizeBuckets()),
		refineSeconds: obs.NewHistogram("s3_engine_refine_seconds",
			"wall time of the refinement step (scanning the selected intervals)", obs.LatencyBuckets()),
		candidates: obs.NewCounter("s3_engine_candidates_refined_total",
			"candidate records materialized or scanned by refinement"),
		statQueries: obs.NewCounter("s3_engine_stat_queries_total",
			"statistical queries executed (batch included)"),
		rangeQueries: obs.NewCounter("s3_engine_range_queries_total",
			"range queries executed (batch included)"),
		knnQueries: obs.NewCounter("s3_engine_knn_queries_total",
			"k-NN queries executed (batch included)"),
		batchQueries: obs.NewCounter("s3_engine_batch_queries_total",
			"queries executed through the batch endpoints"),
		inflight: obs.NewGauge("s3_engine_inflight_queries",
			"queries currently executing in the engine (vs s3_engine_workers for utilization)"),
	}
}

// registerMetrics publishes the query metrics, the worker bound and the
// plan cache's own families into r.
func (x *executor) registerMetrics(r *obs.Registry) {
	r.MustRegister(x.qmet.plans, x.qmet.descentNodes, x.qmet.planSeconds,
		x.qmet.planBlocks, x.qmet.refineSeconds, x.qmet.candidates,
		x.qmet.statQueries, x.qmet.rangeQueries, x.qmet.knnQueries,
		x.qmet.batchQueries, x.qmet.inflight)
	r.GaugeFunc("s3_engine_workers", "engine worker bound",
		func() float64 { return float64(x.workers) })
	if x.cache != nil {
		x.cache.RegisterMetrics(r)
	}
}

// RegisterMetrics publishes the engine's metrics, plus gauges describing
// its static shape, into r. Call at most once per registry.
func (e *Engine) RegisterMetrics(r *obs.Registry) {
	e.registerMetrics(r)
	r.GaugeFunc("s3_engine_records", "records in the served database",
		func() float64 { return float64(e.ix.db.Len()) })
}

// liveMetrics are the live index's instruments: LSM shape and write-path
// latencies (seal, manifest commit, compaction), the persistence
// retry/degraded machinery's state, and the per-segment query
// instruments the executor updates on its behalf. Created unregistered
// at OpenLiveIndex; published by LiveIndex.RegisterMetrics.
type liveMetrics struct {
	ingested        *obs.Counter
	deletes         *obs.Counter
	compactions     *obs.Counter
	persistFailures *obs.Counter
	persistRetries  *obs.Counter
	degradedTrips   *obs.Counter
	degraded        *obs.Gauge
	retryBackoff    *obs.Gauge
	sealSeconds     *obs.Histogram
	commitSeconds   *obs.Histogram
	compactSeconds  *obs.Histogram
	querySegments   *obs.Histogram
	sketchConsults  *obs.Counter
	segmentsSkipped *obs.Counter
}

func newLiveMetrics() liveMetrics {
	return liveMetrics{
		ingested: obs.NewCounter("s3_live_ingested_records_total",
			"records accepted by Ingest"),
		deletes: obs.NewCounter("s3_live_deletes_total",
			"DeleteVideo operations that changed the snapshot"),
		compactions: obs.NewCounter("s3_live_compactions_total",
			"compactions committed"),
		persistFailures: obs.NewCounter("s3_live_persist_failures_total",
			"failed persistence attempts (seal, manifest commit or compaction)"),
		persistRetries: obs.NewCounter("s3_live_persist_retries_total",
			"backoff-scheduled persistence retry attempts"),
		degradedTrips: obs.NewCounter("s3_live_degraded_transitions_total",
			"transitions into degraded read-only mode"),
		degraded: obs.NewGauge("s3_live_degraded",
			"1 while the index is in degraded read-only mode"),
		retryBackoff: obs.NewGauge("s3_live_retry_backoff_seconds",
			"current persistence retry backoff delay (0 when no retry loop is waiting)"),
		sealSeconds: obs.NewHistogram("s3_live_seal_seconds",
			"wall time of sealing the memtable into an immutable segment", obs.LatencyBuckets()),
		commitSeconds: obs.NewHistogram("s3_live_commit_seconds",
			"wall time of a durable manifest commit", obs.LatencyBuckets()),
		compactSeconds: obs.NewHistogram("s3_live_compaction_seconds",
			"wall time of a committed compaction (merge, segment write and commit)", obs.LatencyBuckets()),
		querySegments: obs.NewHistogram("s3_live_query_segments",
			"segments visited per query (memtable included)", obs.SizeBuckets()),
		sketchConsults: obs.NewCounter("s3_live_sketch_consults_total",
			"segment sketch consultations before refinement"),
		segmentsSkipped: obs.NewCounter("s3_live_segments_skipped_total",
			"segments skipped because their sketch proved the plan misses them"),
	}
}

// RegisterMetrics publishes the live index's metrics, plus gauges
// reading the current snapshot's shape, into r. Call at most once per
// registry.
func (li *LiveIndex) RegisterMetrics(r *obs.Registry) {
	r.MustRegister(li.met.ingested, li.met.deletes, li.met.compactions,
		li.met.persistFailures, li.met.persistRetries, li.met.degradedTrips,
		li.met.degraded, li.met.retryBackoff, li.met.sealSeconds,
		li.met.commitSeconds, li.met.compactSeconds,
		li.met.querySegments, li.met.sketchConsults, li.met.segmentsSkipped)
	li.registerMetrics(r)
	li.coldCtr.RegisterMetrics(r)
	r.GaugeFunc("s3_live_sketch_bytes", "on-disk bytes of segment sketches in the current snapshot",
		func() float64 {
			n := 0
			for _, s := range li.snap.Load().segs {
				if s.sketch != nil {
					n += s.sketch.EncodedSize()
				}
			}
			return float64(n)
		})
	r.GaugeFunc("s3_live_memtable_records", "records in the mutable memtable",
		func() float64 { return float64(li.snap.Load().mem.db.Len()) })
	r.GaugeFunc("s3_live_segments", "sealed immutable segments",
		func() float64 { return float64(len(li.snap.Load().segs)) })
	r.GaugeFunc("s3_live_records", "query-visible records",
		func() float64 {
			snap := li.snap.Load()
			n := snap.mem.db.Len()
			for _, s := range snap.segs {
				n += s.live
			}
			return float64(n)
		})
	r.GaugeFunc("s3_live_cold_segments", "sealed segments serving from the cold tier",
		func() float64 {
			n := 0
			for _, s := range li.snap.Load().segs {
				if s.cold != nil {
					n++
				}
			}
			return float64(n)
		})
	r.GaugeFunc("s3_live_cold_records", "records stored in cold-tier segments",
		func() float64 {
			n := 0
			for _, s := range li.snap.Load().segs {
				if s.cold != nil {
					n += s.cold.Len()
				}
			}
			return float64(n)
		})
	r.GaugeFunc("s3_live_gen", "published snapshot generation",
		func() float64 { return float64(li.snap.Load().gen) })
	r.GaugeFunc("s3_live_dirty", "1 while durable state lags the published snapshot",
		func() float64 {
			li.persistMu.Lock()
			dirty := li.dirty
			li.persistMu.Unlock()
			if dirty {
				return 1
			}
			return 0
		})
}
