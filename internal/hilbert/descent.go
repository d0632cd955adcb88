package hilbert

import "s3cbcd/internal/bitkey"

// Block is one element of the depth-p partition of the curve: a
// hyper-rectangle of the grid together with the curve interval
// [Start, Start + 2^(K·D−Depth)) that visits exactly its cells.
type Block struct {
	// Lo and Hi bound the block per dimension: cell coordinates x satisfy
	// Lo[j] <= x[j] < Hi[j]. The slices alias descent-internal storage and
	// are only valid during the callback; copy them to retain.
	Lo, Hi []uint32
	// Start is the first index of the block's curve interval.
	Start bitkey.Key
	// Index is the block's position among the 2^Depth blocks of its
	// depth: Start's top Depth bits (their low 64 past depth 64).
	Index uint64
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

// MaxDepth is the deepest partition a plan may use: a block index then
// fits a uint64 with room for the exclusive end 2^p of a run, and a
// block count fits an int.
const MaxDepth = 62

// Run is a half-open range [Lo, Hi) of block indices at some partition
// depth p: the curve interval [Lo·2^(K·D−p), Hi·2^(K·D−p)). A plan is a
// sorted list of disjoint, non-adjacent runs at its depth.
type Run struct {
	Lo, Hi uint64
}

// AppendBlock appends block b to runs, whose last run must end at or
// before b, extending that run when b abuts it: blocks appended in curve
// order build the merged run list.
func AppendBlock(runs []Run, b uint64) []Run {
	if n := len(runs); n > 0 && runs[n-1].Hi == b {
		runs[n-1].Hi++
		return runs
	}
	return append(runs, Run{b, b + 1})
}

// Rescale returns the blocks at depth to that r, a run at depth from,
// touches: the same curve interval when to >= from, the smallest run of
// coarser blocks covering it otherwise. Both depths are at most
// MaxDepth.
func (r Run) Rescale(from, to int) Run {
	if to >= from {
		return Run{r.Lo << uint(to-from), r.Hi << uint(to-from)}
	}
	k := uint(from - to)
	return Run{r.Lo >> k, (r.Hi + 1<<k - 1) >> k}
}
