package hilbert

import "s3cbcd/internal/bitkey"

// Block is one element of the depth-p partition of the curve: a
// hyper-rectangle of the grid together with the curve interval
// [Start, End) that visits exactly its cells.
type Block struct {
	// Lo and Hi bound the block per dimension: cell coordinates x satisfy
	// Lo[j] <= x[j] < Hi[j]. The slices alias descent-internal storage and
	// are only valid during the callback; copy them to retain.
	Lo, Hi []uint32
	// Start and End delimit the half-open curve interval of the block.
	Start, End bitkey.Key
	// Depth is the partition depth p the block belongs to.
	Depth int
}

// Keep decides, for an internal descent node covering the given bounds,
// whether to continue descending into it. Bounds follow Block semantics
// (half-open, aliased storage). Returning false prunes the whole subtree:
// the geometric filtering rule of a range query or — the point of the
// paper — the probabilistic rule of a statistical query.
type Keep func(lo, hi []uint32) bool

// Emit receives each surviving depth-p block, in curve order. Returning
// false aborts the descent early.
type Emit func(b Block) bool

// StepVisitor observes the descent one bit at a time, which lets pruning
// rules maintain their decision quantity *incrementally*: every descent
// step halves exactly one dimension, so a product of per-dimension masses
// (statistical filtering) or a sum of per-dimension distances (geometric
// filtering) changes in one factor/term only. This is what makes the
// filtering step cheap at D = 20 — recomputing a 20-factor product at
// every node would dominate the query time.
type StepVisitor interface {
	// Enter is called when the descent halves dimension dim to [lo, hi).
	// Returning false prunes the subtree; Leave is then NOT called for
	// this step.
	Enter(dim int, lo, hi uint32) bool
	// Leave undoes the matching Enter during backtracking.
	Leave(dim int)
	// Leaf receives each surviving depth-p block in curve order;
	// returning false aborts the walk.
	Leaf(b Block) bool
}

// DescendSteps walks the whole tree down to depth with incremental
// per-dimension notifications: FrontierDescent.Descend from the root. It
// panics if depth is outside [0, K*D].
func (c *Curve) DescendSteps(depth int, v StepVisitor) {
	fd := c.NewFrontierDescent()
	fd.Descend(&fd.cur, depth, v, nil) // a new descent stands on the root
}

// Descend partitions the curve into 2^depth intervals and walks the
// induced block tree. keep is consulted at every internal node (and may be
// nil to keep everything); emit receives the surviving leaves in curve
// order. Descend panics if depth is outside [0, K*D].
func (c *Curve) Descend(depth int, keep Keep, emit Emit) {
	fd := c.NewFrontierDescent()
	fd.Descend(&fd.cur, depth, &keepEmit{cur: &fd.cur, keep: keep, emit: emit}, nil)
}

// keepEmit runs a whole-rectangle Keep rule and an Emit sink on the
// stepwise walk: the child an Enter asks about is the node the walk
// stands on.
type keepEmit struct {
	cur  *Node
	keep Keep
	emit Emit
}

func (a *keepEmit) Enter(int, uint32, uint32) bool {
	return a.keep == nil || a.keep(a.cur.Lo, a.cur.Hi)
}
func (a *keepEmit) Leave(int)         {}
func (a *keepEmit) Leaf(b Block) bool { return a.emit(b) }

// Interval is a half-open range [Start, End) of curve indices.
type Interval struct {
	Start, End bitkey.Key
}

// MergeIntervals coalesces adjacent or overlapping intervals. The input
// must be sorted by Start (Descend emits blocks in curve order, so
// collecting Block.Start/End preserves this). It merges in place and
// returns the shortened slice.
func MergeIntervals(ivs []Interval) []Interval {
	if len(ivs) == 0 {
		return ivs
	}
	out := ivs[:1]
	for _, iv := range ivs[1:] {
		last := &out[len(out)-1]
		if iv.Start.Cmp(last.End) <= 0 {
			if last.End.Less(iv.End) {
				last.End = iv.End
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}
