package core

// Property test of the plan cache's central claim: with the cache on,
// every statistical query answers byte-identically — same matches, same
// plan — to the uncached computation, across arbitrary interleavings of
// ingest, delete, flush and compaction with repeated queries. The
// uncached oracle is the same index queried through WithoutPlanCache, so
// both sides see the same snapshots; testing/quick drives randomized
// schedules the way live_quick_test.go does for the LSM structure.

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"s3cbcd/internal/store"
)

func TestPlanCacheEquivalentQuick(t *testing.T) {
	scenario := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		li, err := OpenLiveIndex(liveTestCurve(), "", LiveOptions{
			Depth:           liveTestDepth,
			MemtableRecords: 1 + r.Intn(40), // tiny: force frequent seals
			CompactSegments: 2 + r.Intn(3),
			PlanCache:       true,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer li.Close()
		// Tiny capacity: evictions happen mid-schedule too.
		li.cache = newPlanCache(16 + r.Intn(64))

		ctx := context.Background()
		raw := WithoutPlanCache(ctx)
		sq := StatQuery{Alpha: 0.9, Model: IsoNormal{D: liveTestDims, Sigma: 2.5}}

		// A small fixed pool of queries, re-issued after every mutation, so
		// the cache both hits (same generation) and re-misses (generation
		// advanced) throughout the schedule.
		pool := make([][]byte, 5)
		for i := range pool {
			pool[i] = randLiveRecord(r).FP
		}
		check := func(label string) bool {
			for qi, q := range pool {
				gotM, gotP, err := li.SearchStat(ctx, q, sq)
				if err != nil {
					t.Fatal(err)
				}
				wantM, wantP, err := li.SearchStat(raw, q, sq)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(gotP, wantP) {
					t.Errorf("seed %d %s: query %d: cached plan differs from uncached:\n got %+v\nwant %+v",
						seed, label, qi, gotP, wantP)
					return false
				}
				if !matchesEqual(gotM, wantM) {
					t.Errorf("seed %d %s: query %d: cached matches differ from uncached (%d vs %d)",
						seed, label, qi, len(gotM), len(wantM))
					return false
				}
			}
			return true
		}

		nOps := 4 + r.Intn(8)
		for op := 0; op < nOps; op++ {
			switch r.Intn(10) {
			case 0, 1, 2, 3, 4, 5:
				batch := make([]store.Record, r.Intn(60))
				for i := range batch {
					batch[i] = randLiveRecord(r)
				}
				if err := li.Ingest(batch); err != nil {
					t.Fatal(err)
				}
			case 6, 7:
				if err := li.DeleteVideo(uint32(r.Intn(6))); err != nil {
					t.Fatal(err)
				}
			case 8:
				if err := li.Flush(); err != nil {
					t.Fatal(err)
				}
			case 9:
				if err := li.Compact(); err != nil {
					t.Fatal(err)
				}
			}
			// Two passes: the first may miss (generation advanced), the
			// second must hit the entries the first pass inserted.
			if !check("after op") || !check("repeat") {
				return false
			}
		}
		st, ok := li.PlanCacheStats()
		if !ok {
			t.Fatal("plan cache reported disabled on a PlanCache index")
		}
		if st.Hits == 0 {
			t.Errorf("seed %d: no cache hits over the whole schedule (misses %d)", seed, st.Misses)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 10}
	if testing.Short() {
		cfg.MaxCount = 3
	}
	if err := quick.Check(scenario, cfg); err != nil {
		t.Fatal(err)
	}
}
