package core

import (
	"context"
	"runtime"

	"s3cbcd/internal/store"
)

// Engine serves a static database: it is the executor (executor.go)
// bound to a fixed view of one resident segment at generation 0, so it
// holds no plan, refine or trace logic of its own. The database's
// keyspace is cut into shards — the partition-by-curve-interval idea of
// the pseudo-disk strategy (Section IV-B), applied across cores — over
// which a single query's refinement fans out, while batch searches fan
// out across queries; both draw on the same bounded worker count.
// Results are byte-identical, order included, to the sequential Index
// path.
//
// An Engine is safe for concurrent use.
type Engine struct {
	executor
	ix   *Index
	view view
}

// EngineOptions configures NewEngineOpts; the zero value reproduces
// NewEngine(ix, 0, 0).
type EngineOptions struct {
	// Shards and Workers are NewEngine's parameters.
	Shards, Workers int
	// PlanCache enables the bounded statistical-plan cache (see
	// plancache.go); answers are byte-identical with it on or off.
	PlanCache bool
	// PlanCacheEntries bounds the cache; 0 selects
	// DefaultPlanCacheEntries.
	PlanCacheEntries int
	// AutoTune enables online threshold-search tuning.
	AutoTune AutoTuneOptions
}

// NewEngine builds an engine over ix with nShards key-range shards and at
// most workers concurrent goroutines per call. nShards <= 0 or 1 selects
// the degenerate single-shard layout (still valid, just sequential);
// workers <= 0 selects GOMAXPROCS. workers == 1 executes everything on
// the calling goroutine, which is the seed's single-threaded behavior.
func NewEngine(ix *Index, nShards, workers int) *Engine {
	if nShards <= 0 {
		nShards = 1
	}
	return NewEngineShards(ix, ix.db.Shards(nShards), workers)
}

// NewEngineShards is NewEngine with an explicit shard layout, e.g. one
// loaded from a file's shard manifest. The ranges must partition the
// database (store.DB.ShardsAt validates that); none selects one shard.
func NewEngineShards(ix *Index, shards []store.ShardRange, workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if len(shards) == 0 {
		shards = ix.db.Shards(1)
	}
	return &Engine{
		executor: executor{pl: &ix.planner, workers: workers, qmet: newQueryMetrics()},
		ix:       ix,
		// The database is static, so the view never changes and the plan
		// cache generation is constant; depth changes are covered by the
		// tuning component of the cache key.
		view: view{segs: []segment{{src: ix.db, shards: shards}}},
	}
}

// NewEngineOpts is NewEngine with the plan cache and auto-tuner knobs.
func NewEngineOpts(ix *Index, opt EngineOptions) *Engine {
	e := NewEngine(ix, opt.Shards, opt.Workers)
	if opt.PlanCache {
		e.EnablePlanCache(opt.PlanCacheEntries)
	}
	if opt.AutoTune.Enabled {
		e.EnableAutoTune(opt.AutoTune)
	}
	return e
}

// EnablePlanCache attaches a plan cache bounded to entries completed
// plans (<= 0 selects DefaultPlanCacheEntries), bucketing keys with a
// quantizer fitted to the database's own value distribution. Not safe
// to call concurrently with queries: enable before serving.
func (e *Engine) EnablePlanCache(entries int) {
	qz, err := store.FitQuantizer(e.ix.db, store.DefaultCodecBits)
	if err != nil || e.ix.db.Len() == 0 {
		// An unfittable or empty database gets evenly spaced cells; only
		// hash bucketing quality is at stake, never correctness.
		qz, _ = store.UniformQuantizer(e.ix.db.Dims(), store.DefaultCodecBits)
	}
	e.cache = newPlanCache(qz, entries)
}

// EnableAutoTune attaches the online tuner, seeded at the engine's
// current static parameters, with depth confined to the curve's valid
// range when opt.TuneDepth is set. Not safe to call concurrently with
// queries: enable before serving.
func (e *Engine) EnableAutoTune(opt AutoTuneOptions) {
	opt.Enabled = true
	e.tuner = newAutoTuner(opt, e.ix.defaultTuning(), 1, e.ix.curve.IndexBits())
}

// Index returns the wrapped index.
func (e *Engine) Index() *Index { return e.ix }

// Len returns the number of records served.
func (e *Engine) Len() int { return e.ix.db.Len() }

// Shards returns the number of keyspace shards.
func (e *Engine) Shards() int { return len(e.view.segs[0].shards) }

// PlanStat computes the filtering-step plan for q without refining it —
// the statistical-query hot path up to (but excluding) the record scan.
// The returned plan's Intervals alias pooled buffers reused by later
// queries; copy them to retain. With tracing disabled this path
// allocates nothing once the pool is warm (guarded by the alloc test
// next to bench_plan_test.go).
func (e *Engine) PlanStat(ctx context.Context, q []byte, sq StatQuery) (Plan, error) {
	return e.planStatAliased(ctx, e.view.gen, q, sq)
}

// SearchStat executes a complete statistical query: one plan against
// the global curve, refinement fanned out across shards. Results are
// byte-identical to Index.SearchStat.
func (e *Engine) SearchStat(ctx context.Context, q []byte, sq StatQuery) ([]Match, Plan, error) {
	return e.searchStat(ctx, e.view, q, sq)
}

// SearchRange executes a complete ε-range query. Results are
// byte-identical to Index.SearchRange.
func (e *Engine) SearchRange(ctx context.Context, q []byte, eps float64) ([]Match, Plan, error) {
	return e.searchRange(ctx, e.view, q, eps)
}

// SearchKNN answers a k-nearest-neighbor query. Results are
// byte-identical to Index.SearchKNN.
func (e *Engine) SearchKNN(ctx context.Context, q []byte, k, maxLeaves int) ([]Match, KNNStats, error) {
	return e.searchKNN(ctx, e.view, q, k, maxLeaves)
}

// SearchStatBatch pipelines many statistical queries across the worker
// pool. results[i] corresponds to queries[i] and equals the sequential
// Index.SearchStat output for that query.
func (e *Engine) SearchStatBatch(ctx context.Context, queries [][]byte, sq StatQuery) ([][]Match, error) {
	return e.searchStatBatch(ctx, e.view, queries, sq)
}
