package hilbert

import (
	"fmt"

	"s3cbcd/internal/bitkey"
)

// Node is an explicit, self-contained descent node: a block of the
// partition tree with owned bounds. Unlike the DFS of Descend, explicit
// nodes can be expanded in any order, which is what best-first traversals
// (k-NN search) need, and a pruned node can be handed back to a
// FrontierDescent to continue the walk below it.
type Node struct {
	// Lo and Hi are the node's hyper-rectangle bounds.
	Lo, Hi []uint32
	Pos
}

// Pos is the slice-free part of a Node: where it sits in the partition
// tree. Retaining a pruned node costs a Pos plus 2*Dims bounds.
type Pos struct {
	// Start is the first index of the node's curve interval: the Bits
	// consumed index bits, left-aligned at the index width.
	Start bitkey.Key
	// Bits is the node's depth in the partition tree.
	Bits int

	level
}

// level is a node's position inside its Hilbert level: the level's
// state, and the count q <= D and value wp of the level's index bits w
// consumed so far. A node that completed its level (q == D) has not
// moved to the next level's state yet: only a node that is descended
// further pays for the transition (open).
type level struct {
	st state
	q  uint
	wp uint64
}

// open returns l ready to be split: at the start of the next level when
// this one is complete.
func (l level) open(n uint) level {
	if l.q == n {
		return level{st: l.st.next(l.wp, n)}
	}
	return l
}

// halving returns the dimension the children of an open node halve and
// flip: child b takes the upper half of that dimension iff b^flip == 1.
// The next bit of w adds Gray bit g[n-1-q] = w[n-1-q] ^ w[n-q], which the
// level's state maps to label bit (n-1-q + d+1) mod n, the dimension.
func (l level) halving(n uint) (dim uint, flip uint64) {
	dim = l.st.d + n - l.q // in [1, 2n)
	if dim >= n {
		dim -= n
	}
	return dim, (l.wp ^ l.st.e>>dim) & 1
}

// child returns the level position of child b of an open node.
func (l level) child(b uint64) level {
	return level{st: l.st, q: l.q + 1, wp: l.wp<<1 | b}
}

// RootNode returns the whole-grid node.
func (c *Curve) RootNode() Node {
	bounds := make([]uint32, 2*c.dims)
	lo, hi := bounds[:c.dims:c.dims], bounds[c.dims:]
	side := c.SideLen()
	for j := range hi {
		hi[j] = side
	}
	return Node{Lo: lo, Hi: hi}
}

// SplitNode returns n's two children in curve order. It panics when the
// node is already at maximal depth.
func (c *Curve) SplitNode(n Node) [2]Node {
	if n.Bits >= c.IndexBits() {
		panic(fmt.Sprintf("hilbert: cannot split node at depth %d", n.Bits))
	}
	l := n.open(uint(c.dims))
	dim, flip := l.halving(uint(c.dims))
	mid := (n.Lo[dim] + n.Hi[dim]) >> 1
	var out [2]Node
	for b := uint64(0); b <= 1; b++ {
		child := Node{
			Lo:  append([]uint32(nil), n.Lo...),
			Hi:  append([]uint32(nil), n.Hi...),
			Pos: Pos{Start: n.Start, Bits: n.Bits + 1, level: l.child(b)},
		}
		if b^flip == 1 {
			child.Lo[dim] = mid
		} else {
			child.Hi[dim] = mid
		}
		if b == 1 {
			child.Start = n.Start.AddPow2(uint(c.IndexBits() - child.Bits))
		}
		out[b] = child
	}
	return out
}

// NodeBlock returns n's index among the nodes of its depth: the top
// n.Bits bits of its curve interval's start (their low 64 past depth 64).
func (c *Curve) NodeBlock(n Node) uint64 {
	return n.Start.Shr(uint(c.IndexBits() - n.Bits)).Uint64()
}
