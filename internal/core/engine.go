package core

import (
	"context"
	"runtime"

	"s3cbcd/internal/hilbert"
)

// Engine serves a static database: it is the executor (executor.go)
// bound to a fixed view of one resident segment at generation 0, so it
// holds no plan, refine or trace logic of its own. A single query runs
// on its caller's goroutine; batch searches fan out across queries (the
// batching of eq. 5) on a bounded worker count. Results are
// byte-identical, order included, to the sequential Index path.
//
// An Engine is safe for concurrent use.
type Engine struct {
	executor
	ix   *Index
	view view
}

// EngineOptions configures NewEngineOpts; the zero value reproduces
// NewEngine(ix, 0).
type EngineOptions struct {
	// Workers is NewEngine's parameter.
	Workers int
	// PlanCache enables the bounded statistical-plan cache (see
	// plancache.go); answers are byte-identical with it on or off.
	PlanCache bool
}

// NewEngine builds an engine over ix running a batch search on at most
// workers goroutines. workers <= 0 selects GOMAXPROCS; workers == 1
// executes everything on the calling goroutine.
func NewEngine(ix *Index, workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{
		executor: executor{pl: &ix.Planner, workers: workers, qmet: newQueryMetrics()},
		ix:       ix,
		// The database is static, so the view never changes and the plan
		// cache generation is constant; depth changes (Index.SetDepth) are
		// covered by the depth component of the cache key.
		view: view{segs: []segment{{src: ix.db}}},
	}
}

// NewEngineOpts is NewEngine with the plan cache switch.
func NewEngineOpts(ix *Index, opt EngineOptions) *Engine {
	e := NewEngine(ix, opt.Workers)
	if opt.PlanCache {
		e.EnablePlanCache()
	}
	return e
}

// EnablePlanCache attaches a plan cache of DefaultPlanCacheEntries
// completed plans. Not safe to call concurrently with queries: enable
// before serving.
func (e *Engine) EnablePlanCache() {
	e.cache = newPlanCache(DefaultPlanCacheEntries)
}

// Index returns the wrapped index.
func (e *Engine) Index() *Index { return e.ix }

// Len returns the number of records served.
func (e *Engine) Len() int { return e.ix.db.Len() }

// PlanStat computes the filtering-step plan for q without refining it —
// the statistical-query hot path up to (but excluding) the record scan.
// The returned plan's Intervals alias pooled buffers reused by later
// queries; copy them to retain. With tracing disabled this path
// allocates nothing once the pool is warm (guarded by the alloc test
// next to bench_plan_test.go).
func (e *Engine) PlanStat(ctx context.Context, q []byte, sq StatQuery) (Plan, error) {
	return e.planStatAliased(ctx, e.view.gen, q, sq)
}

// SearchStat executes a complete statistical query. Results are
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

// RefineStat answers a statistical query from block runs planned
// elsewhere at this engine's curve and depth, without planning
// (executor.refineStat).
func (e *Engine) RefineStat(ctx context.Context, q []byte, sq StatQuery, runs []hilbert.Run) ([]Match, Plan, error) {
	return e.refineStat(ctx, e.view, q, sq, runs)
}
