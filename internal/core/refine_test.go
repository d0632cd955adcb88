package core

// Refinement's own cost over each kind of view a query runs against: a
// static engine, live indexes with a tombstoned resident segment, a
// cached cold segment and two segments to merge.

import (
	"context"
	"math/rand"
	"testing"

	"s3cbcd/internal/hilbert"
	"s3cbcd/internal/store"
)

// refineOnce refines one plan against v through pooled scratch, as a
// query does, returning the matches and the candidate count.
func refineOnce(x *executor, v view, plan Plan, b ball) ([]Match, int, error) {
	ps := x.pl.getScratch()
	defer x.pl.scratch.Put(ps)
	ms, n, _, err := x.refine(context.Background(), v, plan, b, ps.rf)
	return ms, n, err
}

// refineView is one view and the executor that serves it.
type refineView struct {
	name string
	x    *executor
	v    view
}

// Views refineViews can build.
const (
	viewStatic     = "static"
	viewMasked     = "live-masked"
	viewCold       = "live-cold-cached"
	viewTwoSegLive = "live-two-segments"
)

// refineViews serves recs through each named view. The masked view
// tombstones the video of recs[0]; the cold one reads through a cache
// holding every block, with the sketch and codec on as served.
func refineViews(tb testing.TB, curve *hilbert.Curve, depth int, recs []store.Record, names ...string) []refineView {
	tb.Helper()
	var out []refineView
	for _, name := range names {
		if name == viewStatic {
			ix, err := NewIndex(store.MustBuild(curve, recs), depth)
			if err != nil {
				tb.Fatal(err)
			}
			eng := NewEngine(ix, 1)
			out = append(out, refineView{name, &eng.executor, eng.view})
			continue
		}
		opt := LiveOptions{Depth: depth, Workers: 1, MemtableRecords: len(recs) + 1}
		batches := [][]store.Record{recs}
		switch name {
		case viewCold:
			opt.ColdRecords, opt.Cache, opt.Sketch, opt.ColdCodec = 1, store.NewBlockCache(1<<30), true, true
		case viewTwoSegLive:
			batches = [][]store.Record{recs[:len(recs)/2], recs[len(recs)/2:]}
		}
		li, err := OpenLiveIndex(curve, tb.TempDir(), opt)
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { li.Close() })
		for _, batch := range batches {
			if err := li.Ingest(batch); err != nil {
				tb.Fatal(err)
			}
			if err := li.Flush(); err != nil {
				tb.Fatal(err)
			}
		}
		if name == viewMasked {
			if err := li.DeleteVideo(recs[0].ID); err != nil {
				tb.Fatal(err)
			}
		}
		v := li.snap.Load().view()
		if len(v.segs) != len(batches) || (name == viewMasked) != (v.segs[0].masked != nil) ||
			(name == viewCold) != (v.segs[0].src != store.RecordSource(li.snap.Load().segs[0].db)) {
			tb.Fatalf("%s: fixture has %d segments (masked %v, %+v)", name, len(v.segs), v.segs[0].masked != nil, li.Stats())
		}
		out = append(out, refineView{name, &li.executor, v})
	}
	return out
}

// TestRefineAllocs: refinement allocates its result and nothing else —
// the span visits fill the pooled scratch's match buffer, one segment's
// list is copied out once and several are merged into one result — on
// every view: static, tombstoned, cold with every block cached, and two
// segments.
func TestRefineAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instrumentation allocates, and sync.Pool drops items under it")
	}
	curve := liveTestCurve()
	r := rand.New(rand.NewSource(44))
	recs := make([]store.Record, 2000)
	for i := range recs {
		recs[i] = randLiveRecord(r)
	}
	q := recs[len(recs)/2].FP
	sq := StatQuery{Alpha: 0.8, Model: IsoNormal{D: liveTestDims, Sigma: 2.5}}
	for _, rv := range refineViews(t, curve, liveTestDepth, recs, viewStatic, viewMasked, viewCold, viewTwoSegLive) {
		// The scratch is held, not pooled, across the measured runs: a GC
		// emptying the pool would charge a fresh scratch to refinement.
		ps := rv.x.pl.getScratch()
		if err := ps.setQuery(q); err != nil {
			t.Fatal(err)
		}
		qf := append([]float64(nil), ps.qf...)
		statPlan := rv.x.pl.planStatFrontier(ps.qf, sq, ps.mc, ps.fs)
		rangePlan := rv.x.pl.planRangeFloat(qf, 6)
		for _, c := range []struct {
			kind string
			plan Plan
			b    ball
		}{{"statistical", statPlan, ball{}}, {"range", rangePlan, ball{qf: qf, eps: 6}}} {
			refine := func() ([]Match, error) {
				ms, _, _, err := rv.x.refine(context.Background(), rv.v, c.plan, c.b, ps.rf)
				return ms, err
			}
			ms, err := refine() // warm the buffers and the cache
			if err != nil {
				t.Fatal(err)
			}
			if len(ms) == 0 {
				t.Fatalf("%s %s: no matches, so the result allocation is not exercised", rv.name, c.kind)
			}
			allocs := testing.AllocsPerRun(100, func() {
				if _, err := refine(); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 1 {
				t.Errorf("%s %s refine of %d matches allocates %.1f times, want at most 1 (the result)", rv.name, c.kind, len(ms), allocs)
			}
		}
	}
}

// BenchmarkRefine times refinement alone — fixed statistical plans, no
// planning — over 100 000 records of the benchmark corpus's shape
// (clustered near-duplicates, 64 time codes per video) at the serving
// defaults: α 0.8, σ 18, DefaultDepth.
func BenchmarkRefine(b *testing.B) {
	curve := hilbert.MustNew(20, 8)
	recs, queries := refineCorpus(100_000, 256)
	depth := DefaultDepth(curve, len(recs))
	sq := StatQuery{Alpha: 0.8, Model: IsoNormal{D: 20, Sigma: 18}}
	for _, rv := range refineViews(b, curve, depth, recs, viewStatic, viewTwoSegLive, viewCold) {
		plans := make([]Plan, len(queries))
		for i, q := range queries {
			ps := rv.x.pl.getScratch()
			if err := ps.setQuery(q); err != nil {
				b.Fatal(err)
			}
			plans[i] = rv.x.pl.planStatFrontier(ps.qf, sq, ps.mc, ps.fs)
			rv.x.pl.scratch.Put(ps)
			if _, _, err := refineOnce(rv.x, rv.v, plans[i], ball{}); err != nil { // warm
				b.Fatal(err)
			}
		}
		b.Run(rv.name, func(b *testing.B) {
			b.ReportAllocs()
			candidates := 0
			for i := 0; i < b.N; i++ {
				_, n, err := refineOnce(rv.x, rv.v, plans[i%len(plans)], ball{})
				if err != nil {
					b.Fatal(err)
				}
				candidates += n
			}
			b.ReportMetric(float64(candidates)/float64(b.N), "candidates/op")
		})
	}
}

// refineCorpus generates n records and nq queries in the benchmark
// corpus's shape: each record a jittered copy (σ 4) of one of n/128 base
// points spread σ 45 around 128, 64 consecutive records per video id
// with time codes 12 apart; each query a stored fingerprint distorted by
// σ 18.
func refineCorpus(n, nq int) ([]store.Record, [][]byte) {
	r := rand.New(rand.NewSource(44))
	clip := func(v float64) byte { return byte(min(max(v, 0), 255) + 0.5) }
	bases := make([][]byte, max(n/128, 16))
	for i := range bases {
		bases[i] = make([]byte, 20)
		for j := range bases[i] {
			bases[i][j] = clip(128 + r.NormFloat64()*45)
		}
	}
	recs := make([]store.Record, n)
	for i := range recs {
		base := bases[r.Intn(len(bases))]
		fp := make([]byte, 20)
		for j := range fp {
			fp[j] = clip(float64(base[j]) + r.NormFloat64()*4)
		}
		recs[i] = store.Record{FP: fp, ID: uint32(i / 64), TC: uint32(i%64) * 12}
	}
	queries := make([][]byte, nq)
	for i := range queries {
		src := recs[r.Intn(n)].FP
		queries[i] = make([]byte, 20)
		for j := range src {
			queries[i][j] = clip(float64(src[j]) + r.NormFloat64()*18)
		}
	}
	return recs, queries
}
