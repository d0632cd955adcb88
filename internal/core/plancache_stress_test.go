package core

// Concurrency stress for the plan cache, designed to run under -race
// (internal/core is in the Makefile's RACE_PKGS). Phase one bursts
// goroutines on one cold key: every lookup is counted once, as a hit or
// a miss, and every goroutine gets the same plan whether it computed or
// read it. Phase two hammers a live index with
// concurrent readers and mutators, then quiesces and checks no stale
// plan survived the mutations (generation-keyed invalidation cannot
// lose an update).

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"s3cbcd/internal/store"
)

func TestPlanCacheBurstPlansAgree(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	recs := make([]store.Record, 500)
	for i := range recs {
		recs[i] = randLiveRecord(r)
	}
	db, err := store.Build(liveTestCurve(), recs)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := NewIndex(db, liveTestDepth)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(ix, 0)
	eng.EnablePlanCache()

	const n = 16
	q := recs[0].FP
	sq := StatQuery{Alpha: 0.9, Model: IsoNormal{D: liveTestDims, Sigma: 2.5}}
	ctx := context.Background()

	gate := make(chan struct{})
	plans := make([]Plan, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-gate
			p, err := eng.PlanStat(ctx, q, sq)
			if err != nil {
				t.Error(err)
				return
			}
			plans[i] = p
		}(i)
	}
	close(gate)
	wg.Wait()

	for i := 1; i < n; i++ {
		if !reflect.DeepEqual(plans[i], plans[0]) {
			t.Fatalf("goroutine %d got a different plan", i)
		}
	}
	st, ok := eng.PlanCacheStats()
	if !ok {
		t.Fatal("plan cache reported disabled")
	}
	if st.Hits+st.Misses != n {
		t.Errorf("burst: %d hits + %d misses, want %d lookups", st.Hits, st.Misses, n)
	}
	if st.Misses == 0 {
		t.Error("burst on a cold key counted no miss")
	}
}

func TestPlanCacheConcurrentMutationStress(t *testing.T) {
	li, err := OpenLiveIndex(liveTestCurve(), "", LiveOptions{
		Depth:           liveTestDepth,
		MemtableRecords: 32,
		PlanCache:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer li.Close()

	r := rand.New(rand.NewSource(23))
	seedBatch := make([]store.Record, 200)
	for i := range seedBatch {
		seedBatch[i] = randLiveRecord(r)
	}
	if err := li.Ingest(seedBatch); err != nil {
		t.Fatal(err)
	}

	pool := make([][]byte, 6)
	for i := range pool {
		pool[i] = randLiveRecord(r).FP
	}
	sq := StatQuery{Alpha: 0.9, Model: IsoNormal{D: liveTestDims, Sigma: 2.5}}
	ctx := context.Background()

	const (
		readers   = 6
		mutators  = 3
		readIters = 60
		mutateOps = 15
	)
	var wg sync.WaitGroup
	gate := make(chan struct{})
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-gate
			for i := 0; i < readIters; i++ {
				if _, _, err := li.SearchStat(ctx, pool[(g+i)%len(pool)], sq); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	for g := 0; g < mutators; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-gate
			mr := rand.New(rand.NewSource(int64(100 + g)))
			for i := 0; i < mutateOps; i++ {
				switch mr.Intn(4) {
				case 0, 1:
					batch := make([]store.Record, 1+mr.Intn(30))
					for j := range batch {
						batch[j] = randLiveRecord(mr)
					}
					if err := li.Ingest(batch); err != nil {
						t.Error(err)
						return
					}
				case 2:
					if err := li.DeleteVideo(uint32(mr.Intn(6))); err != nil {
						t.Error(err)
						return
					}
				case 3:
					if err := li.Compact(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	close(gate)
	wg.Wait()

	// Quiesced: every cached answer must match a fresh uncached one —
	// a lost invalidation would surface here as a stale plan or stale
	// match set served for the final generation.
	raw := WithoutPlanCache(ctx)
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
			t.Errorf("query %d: post-stress cached plan differs from uncached", qi)
		}
		if !matchesEqual(gotM, wantM) {
			t.Errorf("query %d: post-stress cached matches differ from uncached (%d vs %d)",
				qi, len(gotM), len(wantM))
		}
	}
	st, ok := li.PlanCacheStats()
	if !ok {
		t.Fatal("plan cache reported disabled")
	}
	if st.Hits == 0 {
		t.Errorf("stress produced no cache hits (misses %d)", st.Misses)
	}
	t.Logf("stress: %d hits, %d misses, %d evictions, %d entries",
		st.Hits, st.Misses, st.Evictions, st.Entries)
}
