package core

// Refinement's own cost over each kind of view a query runs against: a
// static engine, live indexes with a tombstoned resident segment, a
// cached cold segment and two segments to merge.

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
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

// cancelSource wraps a segment's source: the first span it hands over
// cancels the query, and it counts the spans refinement took.
type cancelSource struct {
	store.RecordSource
	cancel         context.CancelFunc
	calls, visited int
}

func (c *cancelSource) wrap(visit func(*store.Chunk, int, int) bool) func(*store.Chunk, int, int) bool {
	return func(ch *store.Chunk, lo, hi int) bool {
		c.calls++
		ok := visit(ch, lo, hi)
		if ok {
			c.visited++
		}
		c.cancel()
		return ok
	}
}

func (c *cancelSource) VisitIntervals(depth int, runs []hilbert.Run, visit func(*store.Chunk, int, int) bool) error {
	return c.RecordSource.VisitIntervals(depth, runs, c.wrap(visit))
}

func (c *cancelSource) VisitIntervalsLean(depth int, runs []hilbert.Run, visit func(*store.Chunk, int, int) bool) error {
	return c.RecordSource.VisitIntervalsLean(depth, runs, c.wrap(visit))
}

func (c *cancelSource) VisitIntervalsFiltered(depth int, runs []hilbert.Run, qf []float64, boundSq float64, visit func(*store.Chunk, int, int) bool) error {
	return c.RecordSource.VisitIntervalsFiltered(depth, runs, qf, boundSq, c.wrap(visit))
}

// TestRefineStopsWithinOneSpan: a query cancelled while refinement runs
// stops at the next span its visit hands over — on a resident segment
// (one span per interval) and a cold one (one per interval × block) —
// and returns the context's error.
func TestRefineStopsWithinOneSpan(t *testing.T) {
	curve := liveTestCurve()
	r := rand.New(rand.NewSource(45))
	recs := make([]store.Record, 2000)
	for i := range recs {
		recs[i] = randLiveRecord(r)
	}
	q := recs[len(recs)/2].FP
	sq := StatQuery{Alpha: 0.8, Model: IsoNormal{D: liveTestDims, Sigma: 2.5}}
	for _, rv := range refineViews(t, curve, liveTestDepth, recs, viewStatic, viewCold) {
		ps := rv.x.pl.getScratch()
		if err := ps.setQuery(q); err != nil {
			t.Fatal(err)
		}
		qf := append([]float64(nil), ps.qf...)
		for _, c := range []struct {
			kind string
			plan Plan
			b    ball
		}{
			{"statistical", rv.x.pl.planStatFrontier(ps.qf, sq, ps.mc, ps.fs), ball{}},
			{"range", rv.x.pl.planRangeFloat(qf, 6), ball{qf: qf, eps: 6}},
		} {
			ctx, cancel := context.WithCancel(context.Background())
			src := &cancelSource{RecordSource: rv.v.segs[0].src, cancel: cancel}
			v := view{gen: rv.v.gen, segs: []segment{{src: src}}}
			_, _, _, err := rv.x.refine(ctx, v, c.plan, c.b, ps.rf)
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%s %s: refine returned %v, want the context's error", rv.name, c.kind, err)
			}
			if src.calls != 2 || src.visited != 1 {
				t.Errorf("%s %s: the visit handed over %d spans and refinement took %d; want it stopped at the second, after taking the first",
					rv.name, c.kind, src.calls, src.visited)
			}
			cancel()
		}
		rv.x.pl.scratch.Put(ps)
	}
}

// TestLiveViewBuiltOncePerSnapshot: a query sees the snapshot's view as
// published, so a statistical search over two tombstoned segments
// allocates exactly what the executor does on a view built beforehand —
// the view itself, its segment list and mask closures, nothing. (Built
// per query, it cost 3 of 5 allocations.)
func TestLiveViewBuiltOncePerSnapshot(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instrumentation allocates, and sync.Pool drops items under it")
	}
	curve := liveTestCurve()
	r := rand.New(rand.NewSource(45))
	recs := make([]store.Record, 2000)
	for i := range recs {
		recs[i] = randLiveRecord(r)
	}
	li, err := OpenLiveIndex(curve, t.TempDir(), LiveOptions{Depth: liveTestDepth, Workers: 1, MemtableRecords: len(recs) + 1})
	if err != nil {
		t.Fatal(err)
	}
	defer li.Close()
	for _, batch := range [][]store.Record{recs[:1000], recs[1000:]} {
		if err := li.Ingest(batch); err != nil {
			t.Fatal(err)
		}
		if err := li.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := li.DeleteVideo(recs[0].ID); err != nil {
		t.Fatal(err)
	}
	v := li.snap.Load().v
	if len(v.segs) != 2 || v.segs[0].masked == nil || v.segs[1].masked == nil {
		t.Fatalf("fixture: want two tombstoned segments, got %d", len(v.segs))
	}
	ctx := context.Background()
	q := recs[len(recs)/2].FP
	sq := StatQuery{Alpha: 0.8, Model: IsoNormal{D: liveTestDims, Sigma: 2.5}}
	ms, _, err := li.SearchStat(ctx, q, sq)
	if err != nil || len(ms) == 0 {
		t.Fatalf("search: %d matches, %v", len(ms), err)
	}
	search := testing.AllocsPerRun(100, func() { li.SearchStat(ctx, q, sq) })
	prebuilt := testing.AllocsPerRun(100, func() { li.searchStat(ctx, v, q, sq) })
	if search != prebuilt || search > 2 {
		t.Fatalf("SearchStat allocates %.1f times, the executor on a prebuilt view %.1f; want equal and at most 2", search, prebuilt)
	}
}

// TestRefineStatMatchesSearchStat: refining a plan computed elsewhere
// answers exactly as planning it here, on every kind of view, and the
// blocks derived from the intervals are the planner's count.
func TestRefineStatMatchesSearchStat(t *testing.T) {
	curve := liveTestCurve()
	r := rand.New(rand.NewSource(46))
	recs := make([]store.Record, 2000)
	for i := range recs {
		recs[i] = randLiveRecord(r)
	}
	sq := StatQuery{Alpha: 0.9, Model: IsoNormal{D: liveTestDims, Sigma: 3}}
	for _, rv := range refineViews(t, curve, liveTestDepth, recs, viewStatic, viewMasked, viewCold, viewTwoSegLive) {
		for i := 0; i < 20; i++ {
			q := recs[r.Intn(len(recs))].FP
			want, plan, err := rv.x.searchStat(context.Background(), rv.v, q, sq)
			if err != nil {
				t.Fatal(err)
			}
			got, given, err := rv.x.refineStat(context.Background(), rv.v, q, sq, plan.Intervals)
			if err != nil {
				t.Fatalf("%s: %v", rv.name, err)
			}
			if !reflect.DeepEqual(got, want) || given.Blocks != plan.Blocks || given.Depth != plan.Depth {
				t.Fatalf("%s query %d: refined %d matches (%d blocks), planned %d (%d blocks)",
					rv.name, i, len(got), given.Blocks, len(want), plan.Blocks)
			}
		}
	}
}
