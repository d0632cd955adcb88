package s3

// Planner micro-benchmarks: the filtering step of a statistical query at
// α=0.8, σ=18 over the 500k fingerprint corpus, planned by the
// incremental frontier planner and by the legacy multi-descent threshold
// search, plus the zero-allocation guards of the pooled plan path.
//
//	make bench-plan
//
// prints benchstat-ready samples. The end-to-end figures — core.plan_us
// and core.plan.descent_nodes per workload — come from bench/.

import (
	"context"
	"testing"

	"s3cbcd/internal/core"
	"s3cbcd/internal/experiments"
	"s3cbcd/internal/fingerprint"
	"s3cbcd/internal/hilbert"
	"s3cbcd/internal/obs"
	"s3cbcd/internal/store"
)

// BenchmarkPlanStat measures the production (frontier) filtering step.
func BenchmarkPlanStat(b *testing.B) {
	_, ix, queries := sharedCorpusDB(b)
	sq := corpusBenchQuery()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ix.PlanStat(queries[i%len(queries)], sq); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanStatLegacy measures the retained multi-descent search.
func BenchmarkPlanStatLegacy(b *testing.B) {
	_, ix, queries := sharedCorpusDB(b)
	sq := corpusBenchQuery()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ix.PlanStatLegacy(queries[i%len(queries)], sq); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEnginePlanStat measures the pooled plan path the engine's
// query methods use (Index.PlanStat above allocates its scratch per
// call; the engine draws it from a per-worker pool).
func BenchmarkEnginePlanStat(b *testing.B) {
	_, ix, queries := sharedCorpusDB(b)
	eng := core.NewEngine(ix, 1)
	sq := corpusBenchQuery()
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := eng.PlanStat(ctx, queries[i%len(queries)], sq); err != nil {
			b.Fatal(err)
		}
	}
}

// planAllocEngine builds a small single-shard engine for the allocation
// guard — counting allocations does not need the 500k shared corpus.
func planAllocEngine(tb testing.TB) (*core.Engine, [][]byte) {
	tb.Helper()
	curve := hilbert.MustNew(fingerprint.D, 8)
	db, err := store.Build(curve, experiments.FPCorpus(4096, 1))
	if err != nil {
		tb.Fatal(err)
	}
	ix, err := core.NewIndex(db, 0)
	if err != nil {
		tb.Fatal(err)
	}
	queries, _ := experiments.DistortedQueries(db, 8, corpusBenchSigma, 2)
	return core.NewEngine(ix, 1), queries
}

// TestPlanStatNoAllocsUntraced pins the cost contract of the
// observability layer: with no trace in the context, the pooled plan
// path allocates nothing — the engine metrics are pure atomics and the
// context lookup uses a zero-size key. A regression here means tracing
// stopped being free when disabled.
func TestPlanStatNoAllocsUntraced(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the guard runs in the non-race pass")
	}
	eng, queries := planAllocEngine(t)
	sq := corpusBenchQuery()
	ctx := context.Background()
	for _, q := range queries { // warm the scratch pool
		if _, err := eng.PlanStat(ctx, q, sq); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, err := eng.PlanStat(ctx, queries[0], sq); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("untraced PlanStat allocates %.1f objects per call, want 0", avg)
	}

	// The same call with a trace attached must record the plan's work —
	// the traced path may allocate, but only the traced path.
	tr := obs.NewTrace()
	if _, err := eng.PlanStat(obs.WithTrace(ctx, tr), queries[0], sq); err != nil {
		t.Fatal(err)
	}
	if rep := tr.Report(); rep.DescentNodes == 0 || rep.Blocks == 0 {
		t.Errorf("traced PlanStat recorded no work: %+v", rep)
	}
}

// TestPlanStatNoAllocsCacheHit extends the guard to the plan cache: a
// hit returns the shared cached plan — hash the key, bump the LRU,
// return — without allocating. The compute closure the engine hands the
// cache must not escape to the heap on the hit path.
func TestPlanStatNoAllocsCacheHit(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the guard runs in the non-race pass")
	}
	eng, queries := planAllocEngine(t)
	eng.EnablePlanCache(0)
	sq := corpusBenchQuery()
	ctx := context.Background()
	for _, q := range queries { // warm the scratch pool and populate the cache
		if _, err := eng.PlanStat(ctx, q, sq); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, err := eng.PlanStat(ctx, queries[0], sq); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("cache-hit PlanStat allocates %.1f objects per call, want 0", avg)
	}
	st, ok := eng.PlanCacheStats()
	if !ok || st.Hits == 0 {
		t.Fatalf("guard did not exercise the hit path: stats %+v ok=%v", st, ok)
	}
}
