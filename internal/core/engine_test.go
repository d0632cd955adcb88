package core

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

// newEngineFixture builds one index plus engines at several worker
// bounds over the same database.
func newEngineFixture(t *testing.T, dims, n int, seed int64, workerCounts []int) (*Index, map[int]*Engine) {
	t.Helper()
	db := testDB(t, dims, n, seed)
	ix, err := NewIndex(db, 0)
	if err != nil {
		t.Fatal(err)
	}
	engines := make(map[int]*Engine, len(workerCounts))
	for _, w := range workerCounts {
		engines[w] = NewEngine(ix, w)
	}
	return ix, engines
}

// TestEngineIdentityQuick is the property test of the engine's identity
// invariant: for every query and every worker bound, the engine's
// statistical, range, k-NN and batch results are byte-identical — order
// and nil-for-no-match included — to the sequential Index reference,
// which shares the planner but none of the refinement.
func TestEngineIdentityQuick(t *testing.T) {
	ix, engines := newEngineFixture(t, 6, 2500, 41, []int{1, 4})
	db := ix.DB()
	r := rand.New(rand.NewSource(42))
	ctx := context.Background()

	f := func(aRaw, sRaw, eRaw, kRaw uint8) bool {
		q, _ := distortedQuery(r, db, 14)
		alpha := 0.5 + float64(aRaw)/512 // [0.5, 1)
		sigma := 4 + float64(sRaw%32)    // [4, 36)
		eps := 20 + 3*float64(eRaw%64)   // [20, 209]
		k := 1 + int(kRaw%16)            // [1, 16]
		sq := StatQuery{Alpha: alpha, Model: IsoNormal{D: db.Dims(), Sigma: sigma}}

		wantStat, wantPlan, err := ix.SearchStat(q, sq)
		if err != nil {
			t.Fatal(err)
		}
		wantRange, wantRPlan, err := ix.SearchRange(q, eps)
		if err != nil {
			t.Fatal(err)
		}
		wantKNN, wantKStats, err := ix.SearchKNN(q, k, 0)
		if err != nil {
			t.Fatal(err)
		}
		for n, e := range engines {
			gotStat, gotPlan, err := e.SearchStat(ctx, q, sq)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotStat, wantStat) || !reflect.DeepEqual(gotPlan, wantPlan) {
				t.Logf("workers=%d alpha=%v sigma=%v: stat mismatch (%d vs %d matches)",
					n, alpha, sigma, len(gotStat), len(wantStat))
				return false
			}
			gotRange, gotRPlan, err := e.SearchRange(ctx, q, eps)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotRange, wantRange) || !reflect.DeepEqual(gotRPlan, wantRPlan) {
				t.Logf("workers=%d eps=%v: range mismatch (%d vs %d matches)",
					n, eps, len(gotRange), len(wantRange))
				return false
			}
			gotKNN, gotKStats, err := e.SearchKNN(ctx, q, k, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotKNN, wantKNN) || gotKStats != wantKStats {
				t.Logf("workers=%d k=%d: knn mismatch", n, k)
				return false
			}
			batch, err := e.SearchStatBatch(ctx, [][]byte{q, q}, sq)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(batch, [][]Match{wantStat, wantStat}) {
				t.Logf("workers=%d alpha=%v sigma=%v: batch mismatch", n, alpha, sigma)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestEngineEmptyResultIdentity pins the subtle part of byte-identity:
// queries selecting nothing must return nil (not an empty slice) exactly
// like the sequential path, so reflect.DeepEqual holds there too.
func TestEngineEmptyResultIdentity(t *testing.T) {
	ix, engines := newEngineFixture(t, 6, 400, 7, []int{4})
	q := make([]byte, 6) // origin corner; tiny radius finds nothing
	want, _, err := ix.SearchRange(q, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if want != nil {
		t.Skip("fixture unexpectedly has a record at the origin")
	}
	got, _, err := engines[4].SearchRange(context.Background(), q, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Fatalf("engine empty range result is %#v, want nil", got)
	}
}

// TestEngineBatchMatchesSequential checks that every batch entry equals
// the corresponding single-query result.
func TestEngineBatchMatchesSequential(t *testing.T) {
	ix, engines := newEngineFixture(t, 6, 1500, 11, []int{3})
	e := engines[3]
	db := ix.DB()
	r := rand.New(rand.NewSource(12))
	queries := make([][]byte, 60)
	for i := range queries {
		queries[i], _ = distortedQuery(r, db, 10)
	}
	sq := StatQuery{Alpha: 0.8, Model: IsoNormal{D: 6, Sigma: 10}}
	ctx := context.Background()

	stat, err := e.SearchStatBatch(ctx, queries, sq)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		wantS, _, err := ix.SearchStat(q, sq)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(stat[i], wantS) {
			t.Fatalf("batch stat %d differs from sequential", i)
		}
	}
}

// TestEngineConcurrentUse hammers one engine from many goroutines; run
// under -race it proves queries share no mutable state.
func TestEngineConcurrentUse(t *testing.T) {
	ix, engines := newEngineFixture(t, 6, 1200, 21, []int{4})
	e := engines[4]
	db := ix.DB()
	sq := StatQuery{Alpha: 0.8, Model: IsoNormal{D: 6, Sigma: 12}}
	ctx := context.Background()

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 20; i++ {
				q, _ := distortedQuery(r, db, 12)
				got, _, err := e.SearchStat(ctx, q, sq)
				if err != nil {
					errs <- err
					return
				}
				want, _, err := ix.SearchStat(q, sq)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("concurrent stat result differs from sequential")
					return
				}
				if _, _, err := e.SearchRange(ctx, q, 50); err != nil {
					errs <- err
					return
				}
				if _, err := e.SearchStatBatch(ctx, [][]byte{q, q}, sq); err != nil {
					errs <- err
					return
				}
			}
		}(int64(100 + g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestEngineContextCancellation checks a canceled context aborts both
// single and batch searches with the context's error.
func TestEngineContextCancellation(t *testing.T) {
	ix, engines := newEngineFixture(t, 6, 500, 31, []int{2})
	e := engines[2]
	q := ix.DB().FP(0)
	sq := StatQuery{Alpha: 0.8, Model: IsoNormal{D: 6, Sigma: 10}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := e.SearchStat(ctx, q, sq); err == nil {
		t.Error("SearchStat ignored canceled context")
	}
	if _, _, err := e.SearchRange(ctx, q, 50); err == nil {
		t.Error("SearchRange ignored canceled context")
	}
	if _, _, err := e.SearchKNN(ctx, q, 3, 0); err == nil {
		t.Error("SearchKNN ignored canceled context")
	}
	if _, err := e.SearchStatBatch(ctx, [][]byte{q}, sq); err == nil {
		t.Error("SearchStatBatch ignored canceled context")
	}
}

// TestEngineBadQueries checks validation errors surface through every
// engine entry point.
func TestEngineBadQueries(t *testing.T) {
	_, engines := newEngineFixture(t, 6, 300, 51, []int{2})
	e := engines[2]
	sq := StatQuery{Alpha: 0.8, Model: IsoNormal{D: 6, Sigma: 10}}
	ctx := context.Background()
	short := []byte{1, 2, 3}
	if _, _, err := e.SearchStat(ctx, short, sq); err == nil {
		t.Error("SearchStat accepted wrong-dimension query")
	}
	if _, _, err := e.SearchRange(ctx, short, 10); err == nil {
		t.Error("SearchRange accepted wrong-dimension query")
	}
	if _, _, err := e.SearchRange(ctx, make([]byte, 6), -1); err == nil {
		t.Error("SearchRange accepted negative radius")
	}
	if _, err := e.SearchStatBatch(ctx, [][]byte{make([]byte, 6), short}, sq); err == nil {
		t.Error("SearchStatBatch accepted wrong-dimension query")
	}
	bad := StatQuery{Alpha: 0, Model: IsoNormal{D: 6, Sigma: 10}}
	if _, _, err := e.SearchStat(ctx, make([]byte, 6), bad); err == nil {
		t.Error("SearchStat accepted alpha = 0")
	}
}
