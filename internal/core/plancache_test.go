package core

import (
	"context"
	"math/rand"
	"testing"

	"s3cbcd/internal/hilbert"
	"s3cbcd/internal/store"
)

// TestPlanCacheNearDuplicatesSpreadAcrossChains: the key hash mixes the
// exact query bytes, so 64 queries each one component ±k away from a
// base — the distorted near-repeats a monitoring stream sends — spread
// over chains like any distinct keys. A hash over per-component cells
// would chain all 64 together, and every lookup would walk that chain.
func TestPlanCacheNearDuplicatesSpreadAcrossChains(t *testing.T) {
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
	for i := 0; i < queries; i++ {
		q := append([]byte(nil), base...)
		j, k := i%8, byte(1+i/16) // component 0..7, offset 1..4
		if i%16 < 8 {
			q[j] += k
		} else {
			q[j] -= k
		}
		if _, err := eng.PlanStat(context.Background(), q, sq); err != nil {
			t.Fatal(err)
		}
	}

	longest := 0
	for i := range eng.cache.shards {
		for _, head := range eng.cache.shards[i].chains {
			n := 0
			for e := head; e != nil; e = e.hnext {
				n++
			}
			longest = max(longest, n)
		}
	}
	if got := eng.cache.entries(); got != queries {
		t.Fatalf("%d cached plans, want %d distinct keys", got, queries)
	}
	if longest > 2 {
		t.Errorf("longest hash chain holds %d of %d near-duplicate keys, want <= 2", longest, queries)
	}
}
