package core

// FuzzPlanCacheKey attacks the plan cache's key construction with the
// oracle the design demands: for any pair of (query, α, σ) triples —
// hostile floats included — querying through the cache must answer
// exactly like the uncached computation. A key collision that let two
// different queries share a plan would make the second query's cached
// answer diverge from its own uncached oracle; NaN/Inf/out-of-range
// components must error or answer normally, never panic or hang.

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"s3cbcd/internal/store"
)

var fuzzPlanState struct {
	once sync.Once
	eng  *Engine
}

// fuzzPlanEngine builds the shared cache-enabled engine once per process
// (fuzz workers are separate processes, each builds its own).
func fuzzPlanEngine(tb testing.TB) *Engine {
	fuzzPlanState.once.Do(func() {
		r := rand.New(rand.NewSource(7))
		recs := make([]store.Record, 400)
		for i := range recs {
			recs[i] = randLiveRecord(r)
		}
		db, err := store.Build(liveTestCurve(), recs)
		if err != nil {
			tb.Fatal(err)
		}
		ix, err := NewIndex(db, liveTestDepth)
		if err != nil {
			tb.Fatal(err)
		}
		eng := NewEngine(ix, 1)
		// Tiny capacity so fuzz inputs also rotate and evict generations.
		eng.cache = newPlanCache(64)
		fuzzPlanState.eng = eng
	})
	return fuzzPlanState.eng
}

// planEqualBits is byte-identical plan equality: float fields compare by
// bit pattern so a NaN-mass plan (hostile σ) still equals itself.
func planEqualBits(a, b Plan) bool {
	return reflect.DeepEqual(a.Intervals, b.Intervals) && a.Blocks == b.Blocks &&
		math.Float64bits(a.Mass) == math.Float64bits(b.Mass) &&
		math.Float64bits(a.Threshold) == math.Float64bits(b.Threshold) &&
		a.FilterIters == b.FilterIters && a.Depth == b.Depth
}

func FuzzPlanCacheKey(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4}, 0.9, 2.5, []byte{1, 2, 3, 5}, 0.9, 2.5)
	f.Add([]byte{0, 0, 0, 0}, 0.5, 0.1, []byte{31, 31, 31, 31}, 0.99, 30.0)
	f.Add([]byte{10, 20, 30, 31}, 0.8, 2.5, []byte{10, 20, 30, 31}, 0.8, 2.5) // identical: must hit
	f.Add([]byte{5, 5, 5, 5}, math.NaN(), 2.5, []byte{5, 5, 5, 5}, 0.9, math.NaN())
	f.Add([]byte{5, 5, 5, 5}, math.Inf(1), math.Inf(-1), []byte{255, 255, 255, 255}, 1e-300, 1e300)
	f.Add([]byte{}, 0.9, 2.5, []byte{1, 2, 3, 4, 5, 6}, -1.0, 0.0)

	f.Fuzz(func(t *testing.T, qa []byte, alphaA, sigmaA float64, qb []byte, alphaB, sigmaB float64) {
		eng := fuzzPlanEngine(t)
		ctx := context.Background()
		run := func(q []byte, alpha, sigma float64) {
			sq := StatQuery{Alpha: alpha, Model: IsoNormal{D: liveTestDims, Sigma: sigma}}
			gotM, gotP, err := eng.SearchStat(ctx, q, sq)
			if err != nil {
				// Invalid inputs (wrong dims, α outside (0,1), NaN α) must
				// reject identically on the uncached path.
				if _, _, rawErr := eng.SearchStat(WithoutPlanCache(ctx), q, sq); rawErr == nil {
					t.Fatalf("cached query rejected (%v) but uncached accepted: q=%v alpha=%v sigma=%v",
						err, q, alpha, sigma)
				}
				return
			}
			wantM, wantP, err := eng.SearchStat(WithoutPlanCache(ctx), q, sq)
			if err != nil {
				t.Fatalf("cached query accepted but uncached rejected (%v): q=%v alpha=%v sigma=%v",
					err, q, alpha, sigma)
			}
			if !planEqualBits(gotP, wantP) {
				t.Fatalf("cached plan differs from uncached oracle:\n got %+v\nwant %+v\nq=%v alpha=%v sigma=%v",
					gotP, wantP, q, alpha, sigma)
			}
			if !matchesEqual(gotM, wantM) {
				t.Fatalf("cached matches differ from uncached oracle (%d vs %d): q=%v alpha=%v sigma=%v",
					len(gotM), len(wantM), q, alpha, sigma)
			}
		}
		// Order matters: the first triple populates the cache, the second
		// would surface a key collision between them.
		run(qa, alphaA, sigmaA)
		run(qb, alphaB, sigmaB)
	})
}
