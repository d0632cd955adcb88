package hilbert

import "s3cbcd/internal/bitkey"

// FrontierDescent is the pruned walk of the partition tree, and its
// reusable scratch. Every traversal in this package runs it: DescendSteps
// and Descend start it at the root; a resumable descent starts it at any
// node an earlier pass pruned. A normal descent restarts at the root
// every time the pruning rule changes; a frontier descent instead hands
// every pruned node to the pruned callback so that a later pass with a
// weaker rule can resume exactly where the earlier pass stopped, never
// re-walking the part of the tree the earlier pass already settled.
//
// A FrontierDescent may be reused across any number of Descend calls but
// is not safe for concurrent use.
type FrontierDescent struct {
	n, total uint // D and K*D
	depth    int
	v        StepVisitor
	pruned   func(*Node)
	// cur is the node the walk stands on: its bounds, and in cur.Start
	// the index prefix consumed so far (left-aligned, so stepping to a
	// child sets or clears one bit of one word). Bits and level are
	// filled in only for a node handed to pruned.
	cur Node
}

// NewFrontierDescent returns scratch for descents over c, standing on
// the root.
func (c *Curve) NewFrontierDescent() *FrontierDescent {
	return &FrontierDescent{n: uint(c.dims), total: uint(c.IndexBits()), cur: c.RootNode()}
}

// Descend walks the partition subtree under n down to depth: v.Enter is
// consulted for every candidate child (one halved dimension per step),
// v.Leave undoes an Enter on backtrack, and v.Leaf receives each
// surviving depth-level block in curve order. When pruned is non-nil it
// receives, immediately after each Enter that returned false, the
// rejected child as a resumable Node. Passing that Node back to a later
// Descend call continues the walk below it as if it had never been
// pruned.
//
// The node handed to pruned, its Lo/Hi, and the bounds of Blocks handed
// to v.Leaf alias the FrontierDescent's scratch and are only valid
// during the callback; copy them to retain (CopyNode). Descend panics
// when depth is outside [n.Bits, c.IndexBits()].
func (fd *FrontierDescent) Descend(n *Node, depth int, v StepVisitor, pruned func(*Node)) {
	if depth < n.Bits || uint(depth) > fd.total {
		panic("hilbert: descend depth outside [node bits, index bits]")
	}
	copy(fd.cur.Lo, n.Lo)
	copy(fd.cur.Hi, n.Hi)
	fd.cur.Start = n.Start
	fd.depth, fd.v, fd.pruned = depth, v, pruned
	fd.walk(n.Bits, n.level, n.Start.Shr(fd.total-uint(n.Bits)).Uint64())
	fd.v, fd.pruned = nil, nil
}

// walk explores the node of m consumed index bits at level position l,
// whose index among the nodes of its depth is idx, and reports whether
// the descent should go on. It consumes one index
// bit per tree edge. Within a level the bits are the binary rank w of
// the Gray-coded, state-transformed cell label; because a reflected Gray
// code preserves aligned prefixes, every partial prefix of q < D bits
// pins q known label bits, i.e. halves the node's rectangle along q
// known dimensions. This is why the partition is made of
// hyper-rectangles at every depth, not only at multiples of D.
//
// A step costs a handful of single-word operations whatever D and K
// are: two bounds and one bit of the prefix change on the way down and
// are put back on the way up, and idx gains one bit in a register.
// An aborted walk leaves cur as it is — Descend reseeds it.
func (fd *FrontierDescent) walk(m int, l level, idx uint64) bool {
	cur := &fd.cur
	if m == fd.depth {
		return fd.v.Leaf(Block{Lo: cur.Lo, Hi: cur.Hi, Depth: m, Index: idx, Start: cur.Start})
	}
	l = l.open(fd.n)
	dim, flip := l.halving(fd.n)
	lo, hi := cur.Lo[dim], cur.Hi[dim]
	mid := (lo + hi) >> 1
	bit := fd.total - 1 - uint(m)
	word, mask := &cur.Start[bitkey.Words-1-bit>>6], uint64(1)<<(bit&63)
	for b := uint64(0); b <= 1; b++ {
		if b^flip == 1 {
			cur.Lo[dim], cur.Hi[dim] = mid, hi
		} else {
			cur.Lo[dim], cur.Hi[dim] = lo, mid
		}
		if b == 1 {
			*word |= mask
		}
		if fd.v.Enter(int(dim), cur.Lo[dim], cur.Hi[dim]) {
			if !fd.walk(m+1, l.child(b), idx<<1|b) {
				return false
			}
			fd.v.Leave(int(dim))
		} else if fd.pruned != nil {
			cur.Bits, cur.level = m+1, l.child(b)
			fd.pruned(cur)
		}
	}
	*word &^= mask
	cur.Lo[dim], cur.Hi[dim] = lo, hi
	return true
}

// CopyNode returns n with Lo/Hi copied into the given backing storage,
// which must hold at least 2*Dims entries. It is the retention helper
// for nodes received through a pruned callback: the returned node's
// bounds alias dst, not the descent scratch.
func CopyNode(n *Node, dst []uint32) Node {
	d := len(n.Lo)
	copy(dst[:d], n.Lo)
	copy(dst[d:2*d], n.Hi)
	return Node{Lo: dst[:d:d], Hi: dst[d : 2*d : 2*d], Pos: n.Pos}
}
