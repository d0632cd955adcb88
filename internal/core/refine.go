package core

// Source-based refinement: the scan half of every query type expressed
// over store.RecordSource, the seam both the in-memory store.DB and the
// disk-backed store.ColdFile satisfy. Planning is untouched — a plan
// depends only on curve geometry — but refinement here visits candidate
// records through the interface, so one implementation serves resident
// and cold segments alike. Sources backed by real I/O can fail
// mid-visit; these helpers propagate that error, which the all-resident
// wrappers (Index.refineStat and friends) may ignore since a DB never
// fails.

import (
	"container/heap"
	"fmt"
	"math"

	"s3cbcd/internal/hilbert"
	"s3cbcd/internal/store"
)

// statMatchesSource refines a statistical plan against one source: every
// record in the plan's intervals is an answer (the region is the
// answer). masked, when non-nil, hides tombstoned video ids. Pos is
// source-local. The count is the records visited, masked ones included.
func statMatchesSource(src store.RecordSource, masked func(uint32) bool, plan Plan) ([]segMatch, int, error) {
	// One struct, so the escaping visitor costs one heap cell, not two.
	var acc struct {
		out     []segMatch
		visited int
	}
	visit := func(rv store.RecordView) bool {
		acc.visited++
		if masked != nil && masked(rv.ID) {
			return true
		}
		acc.out = append(acc.out, segMatch{key: rv.Key, m: Match{
			Pos: rv.Pos, ID: rv.ID, TC: rv.TC, X: rv.X, Y: rv.Y, Dist: -1}})
		return true
	}
	// Statistical answers never carry fingerprints; a source with a lean
	// record layout (a codec-bearing cold segment) serves the same views
	// at a fraction of the bytes.
	var err error
	if ls, ok := src.(store.LeanSource); ok {
		err = ls.VisitIntervalsLean(plan.Intervals, visit)
	} else {
		err = src.VisitIntervals(plan.Intervals, visit)
	}
	if err != nil {
		return nil, 0, err
	}
	return acc.out, acc.visited, nil
}

// rangeMatchesSource refines a geometric plan against one source,
// keeping records within eps of the query point. The count is the
// records visited, masked ones included (a filtered source visits only
// the candidates its quantized bound could not reject).
func rangeMatchesSource(src store.RecordSource, qf []float64, eps float64, masked func(uint32) bool, plan Plan) ([]segMatch, int, error) {
	epsSq := eps * eps
	var acc struct {
		out     []segMatch
		visited int
	}
	visit := func(rv store.RecordView) bool {
		acc.visited++
		if masked != nil && masked(rv.ID) {
			return true
		}
		if d := distSqToFP(qf, rv.FP); d <= epsSq {
			acc.out = append(acc.out, segMatch{key: rv.Key, m: Match{
				Pos: rv.Pos, ID: rv.ID, TC: rv.TC, X: rv.X, Y: rv.Y, Dist: math.Sqrt(d)}})
		}
		return true
	}
	// A filtered source rejects most out-of-radius candidates on its
	// quantized codes without exact bytes. The filter is conservative
	// (over-visits, never under-visits) and the exact distance check above
	// stays, so the matches are identical either way.
	var err error
	if fs, ok := src.(store.FilteredSource); ok {
		err = fs.VisitIntervalsFiltered(plan.Intervals, qf, epsSq, visit)
	} else {
		err = src.VisitIntervals(plan.Intervals, visit)
	}
	if err != nil {
		return nil, 0, err
	}
	return acc.out, acc.visited, nil
}

// searchKNNSource is the k-NN best-first traversal over a record source:
// blocks of the partition tree are expanded in increasing distance
// order, leaves refined by visiting their curve interval through the
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

	// One-element interval slice reused for every leaf visit: a node's
	// curve interval is a single contiguous range, trivially sorted.
	ivbuf := make([]hilbert.Interval, 1)
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
			ivbuf[0] = curve.NodeInterval(e.node)
			if err := src.VisitIntervals(ivbuf, func(rv store.RecordView) bool {
				if keep != nil && !keep(rv.ID) {
					return true
				}
				stats.Scanned++
				d := math.Sqrt(distSqToFP(qf, rv.FP))
				if d < kth() {
					m := Match{Pos: rv.Pos, ID: rv.ID, TC: rv.TC, X: rv.X, Y: rv.Y, Dist: d}
					if len(best) == k {
						heap.Pop(&best)
					}
					heap.Push(&best, m)
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
