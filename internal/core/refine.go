package core

// Source-based refinement: the scan half of every query type expressed
// over store.RecordSource, the seam both the in-memory store.DB and the
// disk-backed store.ColdFile satisfy. Planning is untouched — a plan
// depends only on curve geometry — but refinement here visits row spans
// through the interface, so one implementation serves resident and cold
// segments alike. Sources backed by real I/O can fail mid-visit; these
// helpers propagate that error, which the all-resident wrappers
// (Index.refineStat and friends) may ignore since a DB never fails.

import (
	"container/heap"
	"fmt"
	"math"

	"s3cbcd/internal/bitkey"
	"s3cbcd/internal/hilbert"
	"s3cbcd/internal/store"
)

// maxKeptMatches caps the match buffer a pooled refiner keeps between
// queries, so one broad query does not pin a large buffer.
const maxKeptMatches = 1 << 14

// refiner is one query's refinement state, held in its pooled
// planScratch. Every segment of the view appends its matches to one
// buffer, ms, in canonical order; runs delimits each segment's list in
// it, and keys holds each match's Hilbert key beside it when the view
// merges several segments. statSpan and rangeSpan are bound once per
// refiner, so handing them to a source allocates nothing.
type refiner struct {
	ms   []Match
	keys []bitkey.Key
	runs []matchRun

	// The current segment's tombstone mask; whether the query's matches
	// carry keys; its range predicate (qf nil: statistical).
	masked func(uint32) bool
	keyed  bool
	qf     []float64
	epsSq  float64
	// visited counts the records the visits delivered, masked ones
	// included.
	visited int
	// done is the query context's Done channel; stopped records that a
	// span found it closed and ended the visit there.
	done    <-chan struct{}
	stopped bool

	statSpan, rangeSpan func(c *store.Chunk, lo, hi int) bool
}

// matchRun is one segment's non-empty match list: refiner.ms[lo:hi].
type matchRun struct{ lo, hi int }

// newRefiner returns a refiner with its span visits bound.
func newRefiner() *refiner {
	r := &refiner{}
	r.statSpan = r.addStat
	r.rangeSpan = r.addRange
	return r
}

// reset starts a query of the given predicate; keyed records keys for a
// merge across segments, and done is the query's cancellation signal.
func (r *refiner) reset(b ball, keyed bool, done <-chan struct{}) {
	r.ms, r.keys, r.runs = r.ms[:0], r.keys[:0], r.runs[:0]
	r.keyed, r.qf, r.epsSq, r.visited = keyed, b.qf, b.eps*b.eps, 0
	r.done, r.stopped = done, false
}

// cancelled reports whether the query was cancelled, with a
// non-blocking receive that takes no lock, so every span can afford it:
// a hedge's loser stops within one span (one run of a resident segment,
// one run × block of a cold one).
func (r *refiner) cancelled() bool {
	select {
	case <-r.done:
		r.stopped = true
		return true
	default:
		return false
	}
}

// refineSegment appends the matches of the plan's runs at depth in src,
// hiding the masked video ids. A statistical query visits the source's
// lean rows; a range query its filtered rows, whose conservative filter
// the exact distance check in addRange completes.
func (r *refiner) refineSegment(src store.RecordSource, masked func(uint32) bool, depth int, runs []hilbert.Run) error {
	r.masked = masked
	lo := len(r.ms)
	var err error
	if r.qf == nil {
		err = src.VisitIntervalsLean(depth, runs, r.statSpan)
	} else {
		err = src.VisitIntervalsFiltered(depth, runs, r.qf, r.epsSq, r.rangeSpan)
	}
	if len(r.ms) > lo {
		r.runs = append(r.runs, matchRun{lo, len(r.ms)})
	}
	return err
}

// addStat appends every unmasked record of the span: the region is the
// answer.
func (r *refiner) addStat(c *store.Chunk, lo, hi int) bool {
	if r.cancelled() {
		return false
	}
	r.visited += hi - lo
	base := c.Base()
	for i := lo; i < hi; i++ {
		id := c.ID(i)
		if r.masked != nil && r.masked(id) {
			continue
		}
		r.ms = append(r.ms, Match{Pos: base + i, ID: id, TC: c.TC(i), X: c.X(i), Y: c.Y(i), Dist: -1})
		if r.keyed {
			r.keys = append(r.keys, c.Key(i))
		}
	}
	return true
}

// addRange appends every unmasked record of the span within the query
// radius, at its distance.
func (r *refiner) addRange(c *store.Chunk, lo, hi int) bool {
	if r.cancelled() {
		return false
	}
	r.visited += hi - lo
	base := c.Base()
	for i := lo; i < hi; i++ {
		id := c.ID(i)
		if r.masked != nil && r.masked(id) {
			continue
		}
		if d := distSqToFP(r.qf, c.FP(i)); d <= r.epsSq {
			r.ms = append(r.ms, Match{Pos: base + i, ID: id, TC: c.TC(i), X: c.X(i), Y: c.Y(i), Dist: math.Sqrt(d)})
			if r.keyed {
				r.keys = append(r.keys, c.Key(i))
			}
		}
	}
	return true
}

// result returns the query's matches in canonical order at exact size:
// one segment's list is copied, several are merged; nil for no matches.
func (r *refiner) result() []Match {
	switch {
	case len(r.runs) == 1:
		out := make([]Match, len(r.ms))
		copy(out, r.ms)
		return out
	case len(r.runs) > 1:
		return mergeCanonical(r.ms, r.keys, r.runs)
	}
	return nil
}

// release drops what the pooled refiner should not keep for the next
// query: the segment's mask, the query point, the context's channel and
// a buffer grown past maxKeptMatches.
func (r *refiner) release() {
	r.masked, r.qf, r.done = nil, nil, nil
	if cap(r.ms) > maxKeptMatches {
		r.ms, r.keys = nil, nil
	}
}

// mergeCanonical k-way merges the keyed match lists ms[run.lo:run.hi]
// (each already canonically ordered) into one canonically ordered result
// of exact size: key, then ID, TC, X, Y — the same total order
// store.Build lays records out in, which is what makes results merged
// across segments identical to a monolithic index's scan. It consumes
// runs.
func mergeCanonical(ms []Match, keys []bitkey.Key, runs []matchRun) []Match {
	out := make([]Match, 0, len(ms))
	for len(out) < len(ms) {
		best := -1
		for l := range runs {
			if runs[l].lo == runs[l].hi {
				continue
			}
			if best == -1 || canonicalLess(ms, keys, runs[l].lo, runs[best].lo) {
				best = l
			}
		}
		out = append(out, ms[runs[best].lo])
		runs[best].lo++
	}
	return out
}

// canonicalLess reports whether match i orders before match j.
func canonicalLess(ms []Match, keys []bitkey.Key, i, j int) bool {
	if c := keys[i].Cmp(keys[j]); c != 0 {
		return c < 0
	}
	return identityLess(&ms[i], &ms[j])
}

// searchKNNSource is the k-NN best-first traversal over a record source:
// blocks of the partition tree are expanded in increasing distance
// order, leaves refined by visiting their block through the
// seam. keep, when non-nil, restricts results to accepted video ids.
// See Index.SearchKNN for the exact/approximate contract.
func searchKNNSource(curve *hilbert.Curve, depth int, src store.RecordSource, q []byte, k, maxLeaves int, keep func(id uint32) bool) ([]Match, KNNStats, error) {
	if k < 1 {
		return nil, KNNStats{}, fmt.Errorf("core: k = %d must be >= 1", k)
	}
	qf, err := queryPoint(q, curve.Dims())
	if err != nil {
		return nil, KNNStats{}, err
	}
	var stats KNNStats
	// A k-NN holds at most every record: k comes off the wire, and sizing
	// the heap by it alone lets one request allocate without bound.
	best := make(resultHeap, 0, min(k, src.Len()))
	kth := func() float64 {
		if len(best) < k {
			return math.Inf(1)
		}
		return best[0].Dist
	}

	// One-element run slice reused for every leaf visit: a leaf is one
	// block.
	leaf := make([]hilbert.Run, 1)
	nodes := nodeQueue{{node: curve.RootNode(), distSq: 0}}
	for len(nodes) > 0 {
		e := heap.Pop(&nodes).(nodeEntry)
		if math.Sqrt(e.distSq) > kth() {
			stats.Exact = true
			break
		}
		if e.node.Bits >= depth {
			// Leaf block: refine its records.
			stats.Leaves++
			b := curve.NodeBlock(e.node)
			leaf[0] = hilbert.Run{Lo: b, Hi: b + 1}
			if err := src.VisitIntervals(depth, leaf, func(c *store.Chunk, lo, hi int) bool {
				for i := lo; i < hi; i++ {
					id := c.ID(i)
					if keep != nil && !keep(id) {
						continue
					}
					stats.Scanned++
					d := math.Sqrt(distSqToFP(qf, c.FP(i)))
					if d < kth() {
						m := Match{Pos: c.Base() + i, ID: id, TC: c.TC(i), X: c.X(i), Y: c.Y(i), Dist: d}
						if len(best) == k {
							heap.Pop(&best)
						}
						heap.Push(&best, m)
					}
				}
				return true
			}); err != nil {
				return nil, stats, err
			}
			if maxLeaves > 0 && stats.Leaves >= maxLeaves {
				break
			}
			continue
		}
		for _, child := range curve.SplitNode(e.node) {
			d := nodeDistSq(qf, child.Lo, child.Hi)
			if math.Sqrt(d) <= kth() {
				heap.Push(&nodes, nodeEntry{node: child, distSq: d})
			}
		}
	}
	if len(nodes) == 0 {
		stats.Exact = true
	}
	// Extract in ascending distance order.
	out := make([]Match, len(best))
	for i := len(best) - 1; i >= 0; i-- {
		out[i] = heap.Pop(&best).(Match)
	}
	return out, stats, nil
}
