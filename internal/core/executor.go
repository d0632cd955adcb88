package core

// The one query path. The paper's algorithm (Section IV) is one idea:
// filter once on curve geometry — the plan, cost T_f, independent of the
// records — then refine by scanning the selected curve intervals, cost
// T_r. The executor owns everything between "validated query" and
// "canonically ordered matches": the single plan-cache consult,
// per-segment skip, refinement, the canonical merge, trace spans and the
// query metrics. It runs over a view: a generation plus the immutable
// segments visible at that generation.
// A static database (Engine) is a fixed view of one resident segment at
// generation 0; a LiveIndex hands over its current snapshot.

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"s3cbcd/internal/bitkey"
	"s3cbcd/internal/hilbert"
	"s3cbcd/internal/obs"
	"s3cbcd/internal/store"
)

// Searcher is the query surface shared by the static Engine and the
// LiveIndex, letting serving layers (httpapi, cbcd.Detector) run over
// either a frozen archive or a growing one.
type Searcher interface {
	SearchStat(ctx context.Context, q []byte, sq StatQuery) ([]Match, Plan, error)
	SearchRange(ctx context.Context, q []byte, eps float64) ([]Match, Plan, error)
	SearchKNN(ctx context.Context, q []byte, k, maxLeaves int) ([]Match, KNNStats, error)
	SearchStatBatch(ctx context.Context, queries [][]byte, sq StatQuery) ([][]Match, error)
	// PlanCacheStats reports the plan cache; false when it is off.
	PlanCacheStats() (PlanCacheStats, bool)
}

var (
	_ Searcher = (*Engine)(nil)
	_ Searcher = (*LiveIndex)(nil)
)

// segment is one immutable curve-ordered record set of a view.
type segment struct {
	src store.RecordSource
	// masked hides tombstoned video ids; nil when nothing is masked.
	masked func(uint32) bool
	// sketch, when non-nil, can prove a plan misses the segment.
	sketch *store.Sketch
	// name labels refinement errors (a segment file name; "" in memory).
	name string
}

// view is what one query runs against. gen keys the plan cache, so a
// plan cached against one view can never be served to a later one.
type view struct {
	gen  uint64
	segs []segment
}

// resident returns the database of a view that is exactly one unmasked
// in-memory segment — the case refinement serves with direct row reads
// into a pre-sized result, with no keys and no merge.
func (v view) resident() (*store.DB, bool) {
	if len(v.segs) != 1 || v.segs[0].masked != nil {
		return nil, false
	}
	db, ok := v.segs[0].src.(*store.DB)
	return db, ok
}

// executor is embedded by Engine and LiveIndex; see the file comment.
type executor struct {
	pl      *planner
	workers int
	// cache, when non-nil, memoizes statistical plans keyed on (query, α,
	// model, depth, view generation).
	cache *planCache
	// qmet instruments every query: the plan/refine cost split, plan
	// selectivity and descent work. Always updated (a few atomics per
	// query); exported by registerMetrics.
	qmet queryMetrics
	// Per-segment instruments, owned and exported by a LiveIndex. They
	// stay nil on a static engine, whose fixed one-segment view has
	// nothing to report (obs instruments are nil-safe).
	querySegments   *obs.Histogram
	sketchConsults  *obs.Counter
	segmentsSkipped *obs.Counter
}

// PlanCacheStats reports the plan cache; false when disabled.
func (x *executor) PlanCacheStats() (PlanCacheStats, bool) {
	if x.cache == nil {
		return PlanCacheStats{}, false
	}
	return x.cache.statsSnapshot(), true
}

// Curve returns the curve geometry queries are planned on.
func (x *executor) Curve() *hilbert.Curve { return x.pl.curve }

// Depth returns the partition depth p of the filtering step.
func (x *executor) Depth() int { return x.pl.depth }

// Workers returns the concurrency bound of batch searches; a single
// query runs on its caller's goroutine.
func (x *executor) Workers() int { return x.workers }

// DescentNodes returns the cumulative number of partition-tree nodes
// visited by every plan computed so far.
func (x *executor) DescentNodes() int64 { return x.qmet.descentNodes.Value() }

// planStat computes the statistical plan for the query widened into ps,
// consulting the plan cache when one is attached. On a cache hit no plan
// was computed: the plan-work metrics and trace counters are untouched,
// and the returned Intervals are the cache's shared immutable slice.
func (x *executor) planStat(ctx context.Context, gen uint64, ps *planScratch, q []byte, sq StatQuery) Plan {
	compute := func() Plan {
		t0 := time.Now()
		p := x.pl.planStatFrontier(ps.qf, sq, ps.mc, ps.fs)
		x.notePlan(ctx, p, t0)
		return p
	}
	if pc := x.cache; pc != nil {
		mkey, keyable := modelPlanKey(sq.Model)
		if !keyable || planCacheBypassed(ctx) {
			pc.noteBypass()
		} else if plan, ok := pc.plan(ctx, q, sq.Alpha, mkey, gen, x.pl.depth, compute); ok {
			return plan
		}
		// Not ok: ctx was canceled while waiting on another caller's
		// computation. Plan locally; the ctx error surfaces in refinement.
	}
	return compute()
}

// planStatAliased is the filtering step alone, through pooled scratch.
// The returned plan's Intervals alias pooled buffers reused by later
// queries; with tracing disabled this path allocates nothing once the
// pool is warm.
func (x *executor) planStatAliased(ctx context.Context, gen uint64, q []byte, sq StatQuery) (Plan, error) {
	if err := sq.validate(x.pl.dims()); err != nil {
		return Plan{}, err
	}
	ps := x.pl.getScratch()
	defer x.pl.scratch.Put(ps)
	if err := ps.setQuery(q); err != nil {
		return Plan{}, err
	}
	ps.fs.alias = true
	plan := x.planStat(ctx, gen, ps, q, sq)
	ps.fs.alias = false
	return plan, nil
}

// notePlan records one computed plan into the query metrics and, when
// the query is traced, the trace's work counters.
func (x *executor) notePlan(ctx context.Context, plan Plan, t0 time.Time) {
	x.qmet.plans.Inc()
	x.qmet.planSeconds.ObserveSince(t0)
	x.qmet.planBlocks.Observe(float64(plan.Blocks))
	x.qmet.descentNodes.Add(int64(plan.DescentNodes))
	if tr := obs.FromContext(ctx); tr != nil {
		tr.AddDescentNodes(int64(plan.DescentNodes))
		tr.AddBlocks(int64(plan.Blocks))
	}
}

// ball is the refinement predicate of an ε-range query: keep records
// within eps of qf. The zero ball (nil qf) means statistical refinement,
// where the planned region itself is the answer.
type ball struct {
	qf  []float64
	eps float64
}

func (b ball) statistical() bool { return b.qf == nil }

// run plans and refines one validated query against v: statistical when
// sq is non-nil, ε-range otherwise. single marks a query executed on its
// own, which gets plan/refine spans when traced; queries inside a batch
// do not.
func (x *executor) run(ctx context.Context, v view, q []byte, sq *StatQuery, eps float64, single bool) ([]Match, Plan, error) {
	ps := x.pl.getScratch()
	defer x.pl.scratch.Put(ps)
	if err := ps.setQuery(q); err != nil {
		return nil, Plan{}, err
	}
	tr := obs.FromContext(ctx)
	t0 := time.Now()
	var (
		plan Plan
		b    ball
	)
	if sq != nil {
		plan = x.planStat(ctx, v.gen, ps, q, *sq)
	} else {
		plan = x.pl.planRangeFloat(ps.qf, eps)
		x.notePlan(ctx, plan, t0)
		b = ball{qf: ps.qf, eps: eps}
	}
	if single && tr != nil {
		id := tr.StageSince("plan", t0)
		tr.Annotate(id, "blocks", strconv.Itoa(plan.Blocks))
		tr.Annotate(id, "descentNodes", strconv.Itoa(plan.DescentNodes))
	}
	t1 := time.Now()
	matches, candidates, skipped, err := x.refine(ctx, v, plan, b)
	if err != nil {
		return nil, Plan{}, err
	}
	if single && tr != nil {
		id := tr.StageSince("refine", t1)
		tr.Annotate(id, "candidates", strconv.Itoa(candidates))
		tr.Annotate(id, "matches", strconv.Itoa(len(matches)))
		tr.Annotate(id, "segments", strconv.Itoa(len(v.segs)))
		tr.Annotate(id, "segmentsSkipped", strconv.Itoa(skipped))
	}
	tr.AddSegments(int64(len(v.segs)))
	x.querySegments.Observe(float64(len(v.segs)))
	return matches, plan, nil
}

// refine scans the plan's curve intervals in every segment of v and
// returns the matches in canonical order, plus the number of candidate
// records visited (before tombstone masks) and of segments skipped.
// Two arms, chosen by the concrete type of the records' source: a view
// of one unmasked *store.DB reads its rows directly into a pre-sized
// result; anything else — several segments, tombstones, cold files —
// visits records through the store.RecordSource seam. A view of one segment needs no merge: its list is already
// canonical and is returned as is, so it carries no keys. Several lists
// carry each match's key and are merged.
func (x *executor) refine(ctx context.Context, v view, plan Plan, b ball) (matches []Match, candidates, skipped int, err error) {
	defer x.qmet.refineSeconds.ObserveSince(time.Now())
	if err := ctx.Err(); err != nil {
		return nil, 0, 0, err
	}
	if db, ok := v.resident(); ok {
		matches, candidates = refineResident(db, plan, b)
	} else {
		keyed := len(v.segs) > 1
		lists := make([]segMatches, len(v.segs))
		for i := range v.segs {
			s := &v.segs[i]
			if x.skip(s, plan, b) {
				skipped++
				continue
			}
			var n int
			if b.statistical() {
				lists[i], n, err = statMatchesSource(s.src, s.masked, plan, keyed)
			} else {
				lists[i], n, err = rangeMatchesSource(s.src, b.qf, b.eps, s.masked, plan, keyed)
			}
			if err != nil {
				return nil, 0, 0, fmt.Errorf("core: refine of segment %s: %w", s.name, err)
			}
			candidates += n
		}
		matches = mergeCanonical(lists)
	}
	x.qmet.candidates.Add(int64(candidates))
	obs.FromContext(ctx).AddCandidates(int64(candidates))
	return matches, candidates, skipped, nil
}

// skip reports whether the segment's sketch proves the query finds
// nothing in it, counting the consultation. For a range query the
// component envelope bounds the distance to every record from below — a
// box further than eps holds no match; the occupancy filter then proves
// the plan's intervals hold none of the segment's records. Both bounds
// are one-sided, so skipping cannot change the answer. A nil sketch
// (sketches off, the memtable, a static database) never skips.
func (x *executor) skip(s *segment, plan Plan, b ball) bool {
	if s.sketch == nil {
		return false
	}
	x.sketchConsults.Inc()
	if (b.statistical() || s.sketch.EnvelopeMinDistSq(b.qf) <= b.eps*b.eps) && s.sketch.MayIntersect(plan.Intervals) {
		return false
	}
	x.segmentsSkipped.Inc()
	return true
}

// refineResident is the in-memory arm of refinement: one binary search
// per plan interval — the same searches the sequential Index path
// performs — then direct row reads, all on the calling goroutine.
// Statistical refinement knows its result size once the intervals are
// located and fills one pre-sized slice; range refinement appends. It
// returns the matches and the number of records the plan selected.
func refineResident(db *store.DB, plan Plan, b ball) ([]Match, int) {
	type span struct{ lo, hi int }
	spans := make([]span, 0, len(plan.Intervals))
	total, from := 0, 0
	for _, iv := range plan.Intervals {
		// Plan intervals are sorted and disjoint: each search starts
		// where the previous interval ended.
		lo, hi := db.FindIntervalFrom(from, iv)
		from = hi
		if lo < hi {
			spans = append(spans, span{lo, hi})
			total += hi - lo
		}
	}
	if total == 0 {
		// nil, not an empty slice: byte-identical to the sequential path.
		return nil, 0
	}
	if b.statistical() {
		out := make([]Match, 0, total)
		for _, sp := range spans {
			for i := sp.lo; i < sp.hi; i++ {
				out = append(out, Match{Pos: i, ID: db.ID(i), TC: db.TC(i), X: db.X(i), Y: db.Y(i), Dist: -1})
			}
		}
		return out, total
	}
	epsSq := b.eps * b.eps
	// Appending to nil keeps "no match" nil, like the sequential scan.
	var out []Match
	for _, sp := range spans {
		for i := sp.lo; i < sp.hi; i++ {
			if d := distSqToFP(b.qf, db.FP(i)); d <= epsSq {
				out = append(out, Match{Pos: i, ID: db.ID(i), TC: db.TC(i), X: db.X(i), Y: db.Y(i), Dist: math.Sqrt(d)})
			}
		}
	}
	return out, total
}

// searchStat executes a complete statistical query against v.
func (x *executor) searchStat(ctx context.Context, v view, q []byte, sq StatQuery) ([]Match, Plan, error) {
	if err := sq.validate(x.pl.dims()); err != nil {
		return nil, Plan{}, err
	}
	x.qmet.statQueries.Inc()
	x.qmet.inflight.Add(1)
	defer x.qmet.inflight.Add(-1)
	return x.run(ctx, v, q, &sq, 0, true)
}

// searchRange executes a complete ε-range query against v.
func (x *executor) searchRange(ctx context.Context, v view, q []byte, eps float64) ([]Match, Plan, error) {
	if eps < 0 {
		return nil, Plan{}, fmt.Errorf("core: negative range radius %v", eps)
	}
	x.qmet.rangeQueries.Inc()
	x.qmet.inflight.Add(1)
	defer x.qmet.inflight.Add(-1)
	return x.run(ctx, v, q, nil, eps, true)
}

// searchStatBatch pipelines many statistical queries across the worker
// pool (the batching of eq. 5, executed in parallel), all against the
// one view v. results[i] corresponds to queries[i] and equals the
// single-query answer.
func (x *executor) searchStatBatch(ctx context.Context, v view, queries [][]byte, sq StatQuery) ([][]Match, error) {
	if err := sq.validate(x.pl.dims()); err != nil {
		return nil, err
	}
	x.qmet.statQueries.Add(int64(len(queries)))
	x.qmet.batchQueries.Add(int64(len(queries)))
	x.qmet.inflight.Add(1)
	defer x.qmet.inflight.Add(-1)
	results := make([][]Match, len(queries))
	err := forEach(ctx, x.workers, len(queries), func(i int) error {
		ms, _, err := x.run(ctx, v, queries[i], &sq, 0, false)
		if err != nil {
			return fmt.Errorf("query %d: %w", i, err)
		}
		results[i] = ms
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// searchKNN answers a k-nearest-neighbor query against v: an exact (or,
// with maxLeaves > 0, per-segment early-stopped) best-first traversal
// of each segment skipping masked records. The traversal is inherently
// sequential — each expansion depends on the current k-th distance. A
// one-segment view returns that traversal's answer as is; across
// segments the candidates are merged by distance, ties ordered by
// (ID, TC, X, Y).
func (x *executor) searchKNN(ctx context.Context, v view, q []byte, k, maxLeaves int) ([]Match, KNNStats, error) {
	if k < 1 {
		return nil, KNNStats{}, fmt.Errorf("core: k = %d must be >= 1", k)
	}
	if err := checkQuery(q, x.pl.dims()); err != nil {
		return nil, KNNStats{}, err
	}
	if err := ctx.Err(); err != nil {
		return nil, KNNStats{}, err
	}
	x.qmet.knnQueries.Inc()
	x.qmet.inflight.Add(1)
	defer x.qmet.inflight.Add(-1)
	t0 := time.Now()
	var all []Match
	stats := KNNStats{Exact: true}
	for i := range v.segs {
		s := &v.segs[i]
		var keep func(uint32) bool
		if masked := s.masked; masked != nil {
			keep = func(id uint32) bool { return !masked(id) }
		}
		ms, st, err := searchKNNSource(x.pl.curve, x.pl.depth, s.src, q, k, maxLeaves, keep)
		if err != nil {
			return nil, KNNStats{}, fmt.Errorf("core: refine of segment %s: %w", s.name, err)
		}
		stats.Leaves += st.Leaves
		stats.Scanned += st.Scanned
		stats.Exact = stats.Exact && st.Exact
		if len(v.segs) == 1 {
			all = ms
		} else {
			all = append(all, ms...)
		}
	}
	if len(v.segs) > 1 {
		sort.Slice(all, func(a, b int) bool {
			if all[a].Dist != all[b].Dist {
				return all[a].Dist < all[b].Dist
			}
			return identityLess(&all[a], &all[b])
		})
		if len(all) > k {
			all = all[:k]
		}
	}
	x.qmet.candidates.Add(int64(stats.Scanned))
	x.querySegments.Observe(float64(len(v.segs)))
	if tr := obs.FromContext(ctx); tr != nil {
		tr.StageSince("knn", t0)
		tr.AddCandidates(int64(stats.Scanned))
		tr.AddSegments(int64(len(v.segs)))
	}
	return all, stats, nil
}

// identityLess orders two matches by stored identity: ID, TC, X, Y.
func identityLess(a, b *Match) bool {
	if a.ID != b.ID {
		return a.ID < b.ID
	}
	if a.TC != b.TC {
		return a.TC < b.TC
	}
	if a.X != b.X {
		return a.X < b.X
	}
	return a.Y < b.Y
}

// segMatches is one segment's refinement: its matches in canonical
// order and, when the view merges several segments, their Hilbert keys
// (keys[i] is the key of ms[i]).
type segMatches struct {
	ms   []Match
	keys []bitkey.Key
}

// add appends the match rv makes at distance dist, with its key when
// keyed.
func (l *segMatches) add(rv store.RecordView, dist float64, keyed bool) {
	l.ms = append(l.ms, Match{Pos: rv.Pos, ID: rv.ID, TC: rv.TC, X: rv.X, Y: rv.Y, Dist: dist})
	if keyed {
		l.keys = append(l.keys, rv.Key)
	}
}

// mergeCanonical k-way merges per-segment match lists (each already
// canonically ordered, and keyed when there are several) into one
// canonically ordered result: key, then ID, TC, X, Y — the same total
// order store.Build lays records out in, which is what makes results
// merged across segments identical to a monolithic index's scan. One
// list is returned as is. Returns nil for no matches.
func mergeCanonical(lists []segMatches) []Match {
	if len(lists) == 1 {
		return lists[0].ms
	}
	total := 0
	for _, l := range lists {
		total += len(l.ms)
	}
	if total == 0 {
		return nil
	}
	out := make([]Match, 0, total)
	idx := make([]int, len(lists))
	for len(out) < total {
		best := -1
		for l := range lists {
			if idx[l] >= len(lists[l].ms) {
				continue
			}
			if best == -1 || canonicalLess(&lists[l], idx[l], &lists[best], idx[best]) {
				best = l
			}
		}
		out = append(out, lists[best].ms[idx[best]])
		idx[best]++
	}
	return out
}

// canonicalLess reports whether match i of a orders before match j of b.
func canonicalLess(a *segMatches, i int, b *segMatches, j int) bool {
	if c := a.keys[i].Cmp(b.keys[j]); c != 0 {
		return c < 0
	}
	return identityLess(&a.ms[i], &b.ms[j])
}

// forEach runs fn(i) for every i in [0, n) on up to workers goroutines.
// The first error stops the remaining iterations and is returned; a
// canceled ctx counts as one. With workers <= 1 everything runs on the
// calling goroutine, in strict iteration order.
func forEach(ctx context.Context, workers, n int, fn func(int) error) error {
	if n == 0 {
		return ctx.Err()
	}
	var (
		next     atomic.Int64
		stop     atomic.Bool
		failed   sync.Once
		firstErr error
	)
	work := func() {
		for !stop.Load() {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			err := ctx.Err()
			if err == nil {
				err = fn(i)
			}
			if err != nil {
				failed.Do(func() { firstErr = err })
				stop.Store(true)
				return
			}
		}
	}
	if workers = min(workers, n); workers <= 1 {
		work()
		return firstErr
	}
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	wg.Wait()
	return firstErr
}
