package core

// Probabilistic k-NN — the "probabilistic selection of the bounding
// regions" family of approximate nearest-neighbor methods the paper cites
// as the state of the art it generalizes ([16] Bennett et al., [17]
// Berrani et al.: control directly the expected fraction of the true
// k nearest neighbors). Blocks are visited in decreasing probability mass
// under the distortion model; the traversal stops when the visited mass
// reaches the requested confidence, so the result contains each true
// relevant neighbor with probability >= confidence under the model.

import (
	"container/heap"
	"fmt"
	"math"

	"s3cbcd/internal/hilbert"
)

// massEntry is a block-tree node prioritized by model mass.
type massEntry struct {
	node hilbert.Node
	mass float64
}

type massQueue []massEntry

func (q massQueue) Len() int            { return len(q) }
func (q massQueue) Less(i, j int) bool  { return q[i].mass > q[j].mass }
func (q massQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *massQueue) Push(x interface{}) { *q = append(*q, x.(massEntry)) }
func (q *massQueue) Pop() interface{} {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

// SearchKNNProb returns up to k neighbors found inside the smallest
// region carrying probability mass >= confidence under the model — the
// probabilistically controlled approximate k-NN of the paper's related
// work. Unlike SearchKNN's geometric guarantee, the guarantee here is
// statistical: a fingerprint distorted according to the model is inside
// the visited region with probability >= confidence, so each true
// relevant neighbor is reported with at least that probability. Stats
// report the visited mass and work done.
func (ix *Index) SearchKNNProb(q []byte, k int, confidence float64, m Model) ([]Match, KNNProbStats, error) {
	if k < 1 {
		return nil, KNNProbStats{}, fmt.Errorf("core: k = %d must be >= 1", k)
	}
	if confidence <= 0 || confidence >= 1 {
		return nil, KNNProbStats{}, fmt.Errorf("core: confidence %v outside (0,1)", confidence)
	}
	if err := validateModel(m, ix.db.Dims()); err != nil {
		return nil, KNNProbStats{}, err
	}
	qf, err := queryPoint(q, ix.db.Dims())
	if err != nil {
		return nil, KNNProbStats{}, err
	}
	mc := newMassCache(ix.dims(), ix.curve.SideLen())
	side := ix.curve.SideLen()
	rootMass := blockMass(m, qf, make([]uint32, ix.dims()), fullHi(ix.dims(), side), side, 0)

	var stats KNNProbStats
	best := make(resultHeap, 0, min(k, ix.db.Len())) // as in searchKNNSource
	kth := func() float64 {
		if len(best) < k {
			return math.Inf(1)
		}
		return best[0].Dist
	}
	nodes := massQueue{{node: ix.curve.RootNode(), mass: rootMass}}
	for len(nodes) > 0 && stats.VisitedMass < confidence {
		e := heap.Pop(&nodes).(massEntry)
		if e.node.Bits >= ix.depth {
			stats.Leaves++
			stats.VisitedMass += e.mass
			b := ix.curve.NodeBlock(e.node)
			lo, hi := ix.db.FindRun(0, hilbert.Run{Lo: b, Hi: b + 1}, uint(ix.curve.IndexBits()-ix.depth))
			for i := lo; i < hi; i++ {
				stats.Scanned++
				d := math.Sqrt(distSqToFP(qf, ix.db.FP(i)))
				if d < kth() {
					match := Match{Pos: i, ID: ix.db.ID(i), TC: ix.db.TC(i),
						X: ix.db.X(i), Y: ix.db.Y(i), Dist: d}
					if len(best) == k {
						heap.Pop(&best)
					}
					heap.Push(&best, match)
				}
			}
			continue
		}
		for _, child := range ix.curve.SplitNode(e.node) {
			mass := nodeMassCached(mc, m, qf, child)
			if mass > 0 {
				heap.Push(&nodes, massEntry{node: child, mass: mass})
			}
		}
	}
	out := make([]Match, len(best))
	for i := len(best) - 1; i >= 0; i-- {
		out[i] = heap.Pop(&best).(Match)
	}
	return out, stats, nil
}

// KNNProbStats reports a probabilistic k-NN traversal.
type KNNProbStats struct {
	// VisitedMass is the model mass of the refined leaf blocks: the
	// per-neighbor retrieval probability achieved.
	VisitedMass float64
	// Leaves and Scanned count refined blocks and distance evaluations.
	Leaves  int
	Scanned int
}

// fullHi returns the all-side upper bound vector.
func fullHi(dims int, side uint32) []uint32 {
	hi := make([]uint32, dims)
	for i := range hi {
		hi[i] = side
	}
	return hi
}

// nodeMassCached computes a node's model mass with the per-dimension
// dyadic cache.
func nodeMassCached(mc *massCache, m Model, q []float64, n hilbert.Node) float64 {
	mass := 1.0
	for j := range n.Lo {
		mass *= mc.get(m, q, j, n.Lo[j], n.Hi[j])
		if mass == 0 {
			return 0
		}
	}
	return mass
}
