package s3

// Plan cache benchmark: the filtering step of a monitoring-style
// workload — a bounded set of queries re-issued round after round, the
// way Section V-D's continuous stream re-queries near-identical
// fingerprints — planned by a cache-enabled engine and by the same
// engine through the WithoutPlanCache bypass.
//
//	go test -run TestPlanCacheBenchSweep -bench-plancache -timeout 30m .
//
// regenerates BENCH_plancache.json in the repository root. The test
// verifies, query by query, that cached and uncached plans are
// byte-identical (and full answers on a sample), then gates on the
// cache delivering at least 2x plans/sec and a 90% hit rate — the same
// gate the CI smoke job asserts at a smaller corpus via
// -bench-plancache-records.

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"

	"s3cbcd/internal/core"
	"s3cbcd/internal/experiments"
	"s3cbcd/internal/fingerprint"
	"s3cbcd/internal/hilbert"
	"s3cbcd/internal/store"
)

var (
	benchPlanCacheFlag = flag.Bool("bench-plancache", false,
		"run the plan cache comparison and write BENCH_plancache.json")
	benchPlanCacheRecords = flag.Int("bench-plancache-records", corpusBenchRecords,
		"corpus size for -bench-plancache")
)

const planCacheBenchQueries = 64

func TestPlanCacheBenchSweep(t *testing.T) {
	if !*benchPlanCacheFlag {
		t.Skip("pass -bench-plancache to run the plan cache comparison")
	}
	n := *benchPlanCacheRecords
	curve := hilbert.MustNew(fingerprint.D, 8)
	db, err := store.Build(curve, experiments.FPCorpus(n, 1))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := core.NewIndex(db, 0)
	if err != nil {
		t.Fatal(err)
	}
	queries, _ := experiments.DistortedQueries(db, planCacheBenchQueries, corpusBenchSigma, 2)
	sq := corpusBenchQuery()

	eng := core.NewEngineOpts(ix, core.EngineOptions{Workers: 1, PlanCache: true})
	cached := context.Background()
	uncached := core.WithoutPlanCache(cached)

	// measure plans every query for `rounds` rounds under ctx. The warm
	// pass outside the timer pages in the corpus structures and, on the
	// cached side, populates the cache — steady-state monitoring is the
	// workload the cache exists for, so the steady state is what the
	// number reports.
	const rounds = 5
	warm := func(ctx context.Context) {
		for _, q := range queries {
			if _, err := eng.PlanStat(ctx, q, sq); err != nil {
				t.Fatal(err)
			}
		}
	}
	timed := func(ctx context.Context) float64 {
		start := time.Now()
		for r := 0; r < rounds; r++ {
			for _, q := range queries {
				if _, err := eng.PlanStat(ctx, q, sq); err != nil {
					t.Fatal(err)
				}
			}
		}
		secs := time.Since(start).Seconds() / rounds
		return float64(len(queries)) / secs
	}

	warm(uncached)
	uncachedRate := timed(uncached)
	warm(cached) // the one-time cold population: every steady-state lookup after it should hit
	st0, ok := eng.PlanCacheStats()
	if !ok {
		t.Fatal("plan cache reported disabled")
	}
	cachedRate := timed(cached)

	// Answers must be byte-identical: every plan, and the full match set
	// on a sample of queries (refinement consumes the plan verbatim, so
	// identical plans imply identical answers; the sample re-checks it
	// end to end anyway). PlanStat's Intervals alias pooled scratch on
	// the uncached side, so each pair is compared before the next call.
	for i, q := range queries {
		cp, err := eng.PlanStat(cached, q, sq)
		if err != nil {
			t.Fatal(err)
		}
		up, err := eng.PlanStat(uncached, q, sq)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cp, up) {
			t.Fatalf("query %d: cached plan differs from uncached:\n got %+v\nwant %+v", i, cp, up)
		}
	}
	for i := 0; i < len(queries); i += 8 {
		gotM, _, err := eng.SearchStat(cached, queries[i], sq)
		if err != nil {
			t.Fatal(err)
		}
		wantM, _, err := eng.SearchStat(uncached, queries[i], sq)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotM, wantM) {
			t.Fatalf("query %d: cached matches differ from uncached (%d vs %d)",
				i, len(gotM), len(wantM))
		}
	}

	st, ok := eng.PlanCacheStats()
	if !ok {
		t.Fatal("plan cache reported disabled")
	}
	// Steady-state hit rate: lookups after the one-time cold population.
	hits, misses := st.Hits-st0.Hits, st.Misses-st0.Misses
	hitRate := float64(hits) / float64(hits+misses)
	speedup := cachedRate / uncachedRate
	t.Logf("plans/sec: cached %.1f, uncached %.1f (%.1fx); steady-state hit rate %.1f%% (%d hits, %d misses; lifetime %d/%d)",
		cachedRate, uncachedRate, speedup, 100*hitRate, hits, misses, st.Hits, st.Misses)

	// The acceptance gates: repeated queries must plan at least twice as
	// fast through the cache, and the repeated workload must actually hit.
	if speedup < 2 {
		t.Errorf("cached planning %.2fx the uncached rate, want >= 2x", speedup)
	}
	if hitRate < 0.9 {
		t.Errorf("steady-state hit rate %.1f%% on a repeated workload, want >= 90%%", 100*hitRate)
	}

	report := map[string]interface{}{
		"benchmark": "statistical filtering step: plan cache vs uncached planning on a repeated-query workload",
		"corpus": map[string]interface{}{
			"records": n,
			"dims":    fingerprint.D,
			"queries": len(queries),
			"rounds":  rounds,
			"alpha":   corpusBenchAlpha,
			"sigma":   corpusBenchSigma,
		},
		"host": map[string]interface{}{
			"num_cpu":    runtime.NumCPU(),
			"go_version": runtime.Version(),
		},
		"note": fmt.Sprintf("Cached and uncached plans verified byte-identical for every query in-run "+
			"(and full match sets on a sample). Both sides run the same engine; the uncached side goes "+
			"through the WithoutPlanCache bypass (?nocache=1 over HTTP). Timings on a %d-core host.",
			runtime.NumCPU()),
		"cached_plans_per_sec":   cachedRate,
		"uncached_plans_per_sec": uncachedRate,
		"plans_per_sec_factor":   speedup,
		"cache": map[string]interface{}{
			"hits":                  st.Hits,
			"misses":                st.Misses,
			"shared_waits":          st.SharedWaits,
			"evictions":             st.Evictions,
			"entries":               st.Entries,
			"steady_state_hit_rate": hitRate,
		},
	}
	raw, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_plancache.json", append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Log("wrote BENCH_plancache.json")
}

// BenchmarkPlanStatCached measures the steady-state cache-hit plan path
// (compare BenchmarkEnginePlanStat in bench_plan_test.go for the
// uncached pooled path on the shared corpus).
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
