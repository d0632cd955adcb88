package core

import (
	"context"
	"math/rand"
	"testing"

	"s3cbcd/internal/hilbert"
	"s3cbcd/internal/store"
)

// TestPlanCacheNearDuplicatesAreDistinctEntries: the key hash mixes the
// exact query bytes, so 64 queries each one component ±k away from a
// base — the distorted near-repeats a monitoring stream sends — are 64
// entries under 64 hashes, and a second pass hits every one. A hash over
// per-component cells would map them onto a few hashes, and each miss
// would overwrite another near-duplicate's plan.
func TestPlanCacheNearDuplicatesAreDistinctEntries(t *testing.T) {
	const dims = 20
	curve := hilbert.MustNew(dims, 8)
	db, err := store.Build(curve, nil)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := NewIndex(db, DefaultDepth(curve, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(ix, 1)
	eng.EnablePlanCache()

	r := rand.New(rand.NewSource(40))
	base := make([]byte, dims)
	for j := range base {
		base[j] = byte(16*r.Intn(16) + 8) // mid-cell of a 16-wide grid
	}
	sq := StatQuery{Alpha: 0.8, Model: IsoNormal{D: dims, Sigma: 20}}
	const queries = 64
	qs := make([][]byte, queries)
	for i := range qs {
		q := append([]byte(nil), base...)
		j, k := i%8, byte(1+i/16) // component 0..7, offset 1..4
		if i%16 < 8 {
			q[j] += k
		} else {
			q[j] -= k
		}
		qs[i] = q
	}
	for pass := 1; pass <= 2; pass++ {
		for _, q := range qs {
			if _, err := eng.PlanStat(context.Background(), q, sq); err != nil {
				t.Fatal(err)
			}
		}
		st, _ := eng.PlanCacheStats()
		if st.Entries != queries {
			t.Fatalf("pass %d: %d cached plans, want %d distinct keys", pass, st.Entries, queries)
		}
		if want := int64(queries * (pass - 1)); st.Hits != want {
			t.Errorf("pass %d: %d hits, want %d", pass, st.Hits, want)
		}
	}
}

// TestPlanCacheGenerations pins the two-generation bound on a cache of
// 8 (generations of 4): a hit in the older generation promotes the entry
// so it survives the next rotation, an entry never hit again is gone
// after two rotations, Entries never exceeds the capacity and Evictions
// is the sum of the dropped generations' sizes.
func TestPlanCacheGenerations(t *testing.T) {
	const capacity = 8
	pc := newPlanCache(capacity)
	key := func(i int) planKey { return newPlanKey([]byte{byte(i)}, 0.9, 1, 0, 4) }
	plan := func(i int) Plan { return Plan{Blocks: i, Intervals: []hilbert.Run{{Lo: uint64(i), Hi: uint64(i + 1)}}} }
	var dropped int64
	put := func(i int) {
		t.Helper()
		before := len(pc.old)
		rotates := len(pc.cur) == pc.half
		k := key(i)
		pc.put(&k, plan(i))
		if rotates {
			dropped += int64(before)
		}
		if st := pc.statsSnapshot(); st.Entries > capacity || st.Evictions != dropped {
			t.Fatalf("after put %d: %d entries (cap %d), %d evictions (want %d)",
				i, st.Entries, capacity, st.Evictions, dropped)
		}
	}
	get := func(i int) bool {
		t.Helper()
		k := key(i)
		p, ok := pc.get(&k)
		if ok && (p.Blocks != i || p.Intervals[0].Lo != uint64(i)) {
			t.Fatalf("get %d returned the plan of %d", i, p.Blocks)
		}
		return ok
	}

	for i := 0; i < 4; i++ { // fill the first generation
		put(i)
	}
	put(4) // rotation 1: {0..3} becomes the older generation
	if len(pc.cur) != 1 || len(pc.old) != 4 {
		t.Fatalf("after rotation 1: %d current, %d older entries; want 1, 4", len(pc.cur), len(pc.old))
	}
	if !get(0) { // promoted from the older generation
		t.Fatal("entry 0 missed in the older generation")
	}
	if _, ok := pc.cur[key(0).hash]; !ok {
		t.Fatal("a hit in the older generation did not move the entry into the current one")
	}
	put(5)
	put(6)
	put(7) // rotation 2: drops {1,2,3}; {4,0,5,6} becomes the older generation
	if dropped != 3 {
		t.Fatalf("rotation 2 dropped %d entries, want 3", dropped)
	}
	if !get(0) {
		t.Error("entry 0, hit before rotation 2, did not survive it")
	}
	for _, i := range []int{1, 2, 3} {
		if get(i) {
			t.Errorf("entry %d, never hit again, survived two rotations", i)
		}
	}
	for _, i := range []int{4, 5, 6, 7} {
		if !get(i) {
			t.Errorf("entry %d, inserted after rotation 1, missed", i)
		}
	}
	st := pc.statsSnapshot()
	if st.Entries > capacity || st.Evictions != dropped {
		t.Errorf("end: %d entries (cap %d), %d evictions (want %d)", st.Entries, capacity, st.Evictions, dropped)
	}
	if st.Hits != 6 || st.Misses != 3 {
		t.Errorf("end: %d hits, %d misses; want 6, 3", st.Hits, st.Misses)
	}
}
