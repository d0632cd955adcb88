package s3

// Planner micro-benchmarks: the filtering step of a statistical query at
// α=0.8, σ=18 over the 500k fingerprint corpus, planned by the
// incremental frontier planner, by the legacy multi-descent threshold
// search and through the plan cache, plus the zero-allocation guards of
// the pooled and cached plan paths.
//
//	make bench-plan
//
// prints benchstat-ready samples. The end-to-end figures — core.plan_us
// and core.plan.descent_nodes per workload — come from bench/.

import (
	"context"
	"reflect"
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
	b.ResetTimer() // the first benchmark to run builds the shared corpus
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
	b.ResetTimer()
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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.PlanStat(ctx, queries[i%len(queries)], sq); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanStatCached measures the steady-state cache-hit plan path
// (compare BenchmarkEnginePlanStat for the uncached pooled path).
func BenchmarkPlanStatCached(b *testing.B) {
	_, ix, queries := sharedCorpusDB(b)
	eng := core.NewEngineOpts(ix, core.EngineOptions{Workers: 1, PlanCache: true})
	sq := corpusBenchQuery()
	ctx := context.Background()
	for _, q := range queries {
		if _, err := eng.PlanStat(ctx, q, sq); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.PlanStat(ctx, queries[i%len(queries)], sq); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanStatCachedParallel is BenchmarkPlanStatCached from
// GOMAXPROCS goroutines at once (-cpu 1,2,...): the cost of the cache's
// locking when every lookup is a hit.
func BenchmarkPlanStatCachedParallel(b *testing.B) {
	_, ix, queries := sharedCorpusDB(b)
	eng := core.NewEngineOpts(ix, core.EngineOptions{Workers: 1, PlanCache: true})
	sq := corpusBenchQuery()
	ctx := context.Background()
	for _, q := range queries {
		if _, err := eng.PlanStat(ctx, q, sq); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for i := 0; pb.Next(); i++ {
			if _, err := eng.PlanStat(ctx, queries[i%len(queries)], sq); err != nil {
				b.Error(err)
				return
			}
		}
	})
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
// hit returns the shared cached plan — hash the key, look it up, move it
// into the current generation when it sits in the older one — without
// allocating, also when that move rotates the generations. Around the
// guard it pins the cache's accounting exactly: a repeated pass over the
// queries is all hits, and a depth change (Index.SetDepth on a serving
// engine) is one miss that plans at the new depth, never a stale plan,
// while changing back hits the entry planned before.
func TestPlanStatNoAllocsCacheHit(t *testing.T) {
	eng, queries := planAllocEngine(t)
	eng.EnablePlanCache()
	sq := corpusBenchQuery()
	ctx := context.Background()
	plan := func(q []byte) core.Plan {
		t.Helper()
		p, err := eng.PlanStat(ctx, q, sq)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	stats := func() core.PlanCacheStats {
		t.Helper()
		st, ok := eng.PlanCacheStats()
		if !ok {
			t.Fatal("plan cache reported disabled")
		}
		return st
	}
	// expect checks the hit and miss counts added since st0.
	expect := func(step string, st0 core.PlanCacheStats, hits, misses int64) {
		t.Helper()
		st := stats()
		if dh, dm := st.Hits-st0.Hits, st.Misses-st0.Misses; dh != hits || dm != misses {
			t.Errorf("%s: %d hits, %d misses; want %d, %d", step, dh, dm, hits, misses)
		}
	}

	for _, q := range queries { // warm the scratch pool and populate the cache
		plan(q)
	}
	st0 := stats()
	for _, q := range queries {
		plan(q)
	}
	expect("second pass", st0, int64(len(queries)), 0)

	if !raceEnabled { // race instrumentation allocates
		avg := testing.AllocsPerRun(200, func() { plan(queries[0]) })
		if avg != 0 {
			t.Errorf("cache-hit PlanStat allocates %.1f objects per call, want 0", avg)
		}
	}

	q := queries[0]
	d := eng.Index().Depth()
	if p := plan(q); p.Depth != d {
		t.Fatalf("plan at depth %d reports Depth %d", d, p.Depth)
	}
	d2 := d + 1
	eng.Index().SetDepth(d2)
	st0 = stats()
	got := plan(q)
	expect("after SetDepth", st0, 0, 1)
	if got.Depth != d2 {
		t.Errorf("plan after SetDepth(%d) reports Depth %d", d2, got.Depth)
	}
	if want, err := eng.PlanStat(core.WithoutPlanCache(ctx), q, sq); err != nil {
		t.Fatal(err)
	} else if !reflect.DeepEqual(got, want) {
		t.Errorf("cached plan at depth %d differs from uncached:\n got %+v\nwant %+v", d2, got, want)
	}
	eng.Index().SetDepth(d)
	st0 = stats()
	plan(q)
	expect("after restoring the depth", st0, 1, 0)

	// A hit in the older generation moves its entry into the current
	// one, allocation-free too, and so does such a hit whose move rotates
	// the generations. Cheap distinct plans (tiny α) fill the current
	// generation until the queries' plans are the older one.
	const half = core.DefaultPlanCacheEntries / 2
	planFiller := func(i int) {
		t.Helper()
		fsq := sq
		fsq.Alpha = 0.01 + float64(i)*1e-6
		if _, err := eng.PlanStat(ctx, queries[0], fsq); err != nil {
			t.Fatal(err)
		}
	}
	fillers := 0
	fill := func(n int) {
		for ; n > 0; n-- {
			planFiller(fillers)
			fillers++
		}
	}
	// noAllocs runs calls in order: the first warms up, the rest must not
	// allocate (counted outside -race only).
	noAllocs := func(step string, calls ...func()) {
		t.Helper()
		next := 0
		call := func() { calls[next](); next++ }
		if raceEnabled {
			for range calls {
				call()
			}
		} else if avg := testing.AllocsPerRun(len(calls)-1, call); avg != 0 {
			t.Errorf("%s allocates %.1f objects per call, want 0", step, avg)
		}
	}

	fill(half - stats().Entries + 1) // the last filler rotates
	if st := stats(); st.Entries != half+1 || st.Evictions != 0 {
		t.Fatalf("after filling: %d entries, %d evictions; want %d, 0", st.Entries, st.Evictions, half+1)
	}
	st0 = stats()
	var calls []func()
	for _, q := range queries {
		calls = append(calls, func() { plan(q) })
	}
	noAllocs("a hit in the older generation", calls...)
	expect("hits in the older generation", st0, int64(len(queries)), 0)
	if st := stats(); st.Entries != half+1 {
		t.Errorf("moving entries changed the count to %d, want %d", st.Entries, half+1)
	}

	fill(half - 1 - len(queries)) // the current generation is full
	st0 = stats()
	noAllocs("a hit in the older generation that rotates",
		func() { plan(queries[0]) }, // current generation
		func() { planFiller(0) })
	expect("rotating hit", st0, 2, 0)
	// The dropped generation held the depth-d2 plan and the first fillers
	// but the one just moved.
	if st, want := stats(), int64(half-1-len(queries)); st.Evictions != want || st.Entries != half+1 {
		t.Errorf("rotating hit: %d evictions, %d entries; want %d, %d", st.Evictions, st.Entries, want, half+1)
	}
}
