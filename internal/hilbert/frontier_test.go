package hilbert

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"s3cbcd/internal/bitkey"
)

// hashFactor derives a deterministic pseudo-random score for a dyadic
// interval of one dimension, mimicking a per-dimension mass factor
// without needing a model. Factors are exact powers of two so that the
// product of a node's factors is the same float64 no matter the order it
// is accumulated in — the test recomputes products when reseeding a
// resumed visitor, and exact arithmetic keeps that recomputation
// bit-identical to the incremental bookkeeping of a fresh descent.
func hashFactor(dim int, lo, hi uint32, seed uint64) float64 {
	h := seed
	h ^= uint64(dim+1) * 0x9e3779b97f4a7c15
	h ^= uint64(lo) * 0xbf58476d1ce4e5b9
	h ^= uint64(hi) * 0x94d049bb133111eb
	h ^= h >> 31
	h *= 0xd6e8feb86659fd93
	h ^= h >> 29
	return 1 / float64(uint64(1)<<(h%4))
}

// scoreVisitor prunes nodes whose factor product is <= t, collecting
// surviving leaves and (through the frontier callback) pruned nodes.
type scoreVisitor struct {
	seed    uint64
	t       float64
	factors []float64
	prod    float64
	stack   []float64
	dims    []int
	leaves  []keyRange
}

// keyRange is where a leaf's curve interval starts, and its block index.
type keyRange struct {
	Start bitkey.Key
	Index uint64
}

// nodeRange returns where a node's curve interval starts, and its index.
func nodeRange(c *Curve, n Node) keyRange {
	return keyRange{Start: n.Start, Index: c.NodeBlock(n)}
}

func newScoreVisitor(dims int, seed uint64, t float64) *scoreVisitor {
	v := &scoreVisitor{seed: seed, t: t, factors: make([]float64, dims), prod: 1}
	for i := range v.factors {
		v.factors[i] = 1
	}
	return v
}

// reseed positions the visitor at a resumed node by recomputing the
// per-dimension factors from the node's bounds.
func (v *scoreVisitor) reseed(n *Node, side uint32) {
	v.prod = 1
	v.stack = v.stack[:0]
	v.dims = v.dims[:0]
	for j := range v.factors {
		f := 1.0
		if n.Lo[j] != 0 || n.Hi[j] != side {
			f = hashFactor(j, n.Lo[j], n.Hi[j], v.seed)
		}
		v.factors[j] = f
		v.prod *= f
	}
}

func (v *scoreVisitor) Enter(dim int, lo, hi uint32) bool {
	f := hashFactor(dim, lo, hi, v.seed)
	np := v.prod / v.factors[dim] * f
	if np <= v.t {
		return false
	}
	v.stack = append(v.stack, v.factors[dim])
	v.dims = append(v.dims, dim)
	v.factors[dim] = f
	v.prod = np
	return true
}

func (v *scoreVisitor) Leave(int) {
	last := len(v.stack) - 1
	dim := v.dims[last]
	old := v.stack[last]
	v.stack, v.dims = v.stack[:last], v.dims[:last]
	v.prod = v.prod / v.factors[dim] * old
	v.factors[dim] = old
}

func (v *scoreVisitor) Leaf(b Block) bool {
	v.leaves = append(v.leaves, keyRange{Start: b.Start, Index: b.Index})
	return true
}

// TestFrontierRootMatchesDescendSteps checks that a frontier descent from
// the root with no pruning enumerates exactly the DescendSteps leaves.
func TestFrontierRootMatchesDescendSteps(t *testing.T) {
	for _, cfg := range []struct{ dims, order, depth int }{
		{2, 3, 5}, {3, 2, 6}, {4, 2, 8}, {1, 5, 4}, {5, 2, 7},
	} {
		c := MustNew(cfg.dims, cfg.order)
		want := newScoreVisitor(cfg.dims, 0, -1) // t < 0: keep everything
		c.DescendSteps(cfg.depth, want)

		got := newScoreVisitor(cfg.dims, 0, -1)
		fd := c.NewFrontierDescent()
		root := c.RootNode()
		fd.Descend(&root, cfg.depth, got, nil)

		if len(want.leaves) != len(got.leaves) {
			t.Fatalf("%+v: %d leaves vs %d", cfg, len(got.leaves), len(want.leaves))
		}
		for i := range want.leaves {
			if want.leaves[i] != got.leaves[i] {
				t.Fatalf("%+v: leaf %d differs", cfg, i)
			}
		}
	}
}

// TestFrontierResumeEquivalence prunes a first pass hard, then resumes
// every pruned node at a weaker threshold; the union of both passes'
// leaves must equal a fresh descent at the weak threshold.
func TestFrontierResumeEquivalence(t *testing.T) {
	for _, cfg := range []struct {
		dims, order, depth int
		seed               uint64
		tHi, tLo           float64
	}{
		{3, 3, 7, 1, 0.5, 0.1},
		{4, 2, 8, 2, 0.3, 0.01},
		{2, 4, 8, 3, 0.7, 0.2},
		{5, 2, 9, 4, 0.4, 0},
	} {
		c := MustNew(cfg.dims, cfg.order)
		side := c.SideLen()
		fd := c.NewFrontierDescent()
		root := c.RootNode()

		// First pass at the strong threshold, capturing pruned nodes.
		var frontier []Node
		first := newScoreVisitor(cfg.dims, cfg.seed, cfg.tHi)
		fd.Descend(&root, cfg.depth, first, func(n *Node) {
			frontier = append(frontier, CopyNode(n, make([]uint32, 2*cfg.dims)))
		})
		leaves := append([]keyRange(nil), first.leaves...)

		// Resume each pruned node at the weak threshold.
		for i := range frontier {
			n := &frontier[i]
			v := newScoreVisitor(cfg.dims, cfg.seed, cfg.tLo)
			v.reseed(n, side)
			if v.prod <= cfg.tLo {
				continue // still pruned at the weak threshold
			}
			fd.Descend(n, cfg.depth, v, nil)
			leaves = append(leaves, v.leaves...)
		}
		sort.Slice(leaves, func(i, j int) bool { return leaves[i].Start.Cmp(leaves[j].Start) < 0 })

		// Fresh descent at the weak threshold.
		fresh := newScoreVisitor(cfg.dims, cfg.seed, cfg.tLo)
		fd.Descend(&root, cfg.depth, fresh, nil)

		if len(fresh.leaves) != len(leaves) {
			t.Fatalf("%+v: resumed %d leaves, fresh %d", cfg, len(leaves), len(fresh.leaves))
		}
		for i := range leaves {
			if leaves[i] != fresh.leaves[i] {
				t.Fatalf("%+v: leaf %d differs after resume", cfg, i)
			}
		}
		if len(frontier) == 0 {
			t.Fatalf("%+v: first pass pruned nothing, test is vacuous", cfg)
		}
	}
}

// TestFrontierLeafDepthNode resumes a node already at the target depth:
// it must be emitted as a single leaf.
func TestFrontierLeafDepthNode(t *testing.T) {
	c := MustNew(3, 3)
	fd := c.NewFrontierDescent()
	root := c.RootNode()

	var nodes []Node
	v := newScoreVisitor(3, 9, 1.0/32) // deep enough that some leaves prune
	fd.Descend(&root, 5, v, func(n *Node) {
		if n.Bits == 5 {
			nodes = append(nodes, CopyNode(n, make([]uint32, 6)))
		}
	})
	if len(nodes) == 0 {
		t.Fatal("no depth-level nodes were pruned")
	}
	for _, n := range nodes {
		leafV := newScoreVisitor(3, 9, -1)
		fd.Descend(&n, 5, leafV, nil)
		if len(leafV.leaves) != 1 {
			t.Fatalf("depth-level resume emitted %d leaves", len(leafV.leaves))
		}
		want := nodeRange(c, n)
		if leafV.leaves[0] != want {
			t.Fatalf("leaf interval %+v, node interval %+v", leafV.leaves[0], want)
		}
	}
}

// TestFrontierDepthPanics checks the depth validation.
func TestFrontierDepthPanics(t *testing.T) {
	c := MustNew(2, 2)
	fd := c.NewFrontierDescent()
	root := c.RootNode()
	for _, depth := range []int{-1, c.IndexBits() + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("depth %d accepted", depth)
				}
			}()
			fd.Descend(&root, depth, newScoreVisitor(2, 0, -1), nil)
		}()
	}
	// Depth below the node's own bits must also panic.
	kids := c.SplitNode(root)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("depth below node bits accepted")
			}
		}()
		fd.Descend(&kids[0], 0, newScoreVisitor(2, 0, -1), nil)
	}()
}

// tile is one leaf or pruned node of a descent, with owned bounds.
type tile struct {
	Node
	leaf bool
}

// coinVisitor enters each child with probability p — but always the
// second child of a node whose first it rejected, so every walk reaches
// leaves — collecting leaves and (as the pruned callback) rejected nodes
// in visit order.
type coinVisitor struct {
	r     *rand.Rand
	p     float64
	dims  int
	tiles []tile
	// Per level below the descent's start: whether the next Enter asks
	// about a node's second child, and whether its first was entered.
	lvl           int
	second, first [161]bool
}

func (v *coinVisitor) Enter(int, uint32, uint32) bool {
	second := v.second[v.lvl]
	v.second[v.lvl] = !second
	enter := v.r.Float64() < v.p || second && !v.first[v.lvl]
	if !second {
		v.first[v.lvl] = enter
	}
	if enter {
		v.lvl++
	}
	return enter
}
func (v *coinVisitor) Leave(int) { v.lvl-- }
func (v *coinVisitor) Leaf(b Block) bool {
	n := Node{Lo: b.Lo, Hi: b.Hi, Pos: Pos{Start: b.Start, Bits: b.Depth}}
	v.tiles = append(v.tiles, tile{CopyNode(&n, make([]uint32, 2*v.dims)), true})
	return true
}
func (v *coinVisitor) pruned(n *Node) {
	v.tiles = append(v.tiles, tile{CopyNode(n, make([]uint32, 2*v.dims)), false})
}

// TestKernelTilesPaperCurve checks the walk against an oracle that does
// not share it: Encode. On the paper's curve (D=20, K=8), under a seeded
// random pruning rule, with some of the pruned nodes resumed and pruned
// again, the leaves and pruned nodes in visit order must tile
// [0, 2^160) exactly, and each one's rectangle must hold exactly the
// cells of its curve interval — a point drawn inside the bounds encodes
// into the interval, a point drawn outside does not.
func TestKernelTilesPaperCurve(t *testing.T) {
	c := MustNew(20, 8)
	fd := c.NewFrontierDescent()
	root := c.RootNode()
	for _, depth := range []int{1, 7, 20, 21, 33, 45, 160} {
		// A node has 1+p^2 children entered on average: this p keeps a
		// walk a few hundred nodes at every depth.
		v := &coinVisitor{r: rand.New(rand.NewSource(int64(depth))), p: math.Min(0.9, math.Sqrt(5.7/float64(depth))), dims: 20}
		fd.Descend(&root, depth, v, v.pruned)
		for round := 0; round < 2; round++ {
			first := v.tiles
			v.tiles = nil
			for i := range first {
				if tl := &first[i]; !tl.leaf && v.r.Intn(len(first)/8+1) == 0 { // about 8 a round
					fd.Descend(&tl.Node, depth, v, v.pruned)
				} else {
					v.tiles = append(v.tiles, *tl)
				}
			}
		}

		var leaves int
		at := bitkey.Zero
		pt := make([]uint32, 20)
		for i, tl := range v.tiles {
			if tl.leaf {
				leaves++
			}
			if tl.leaf && tl.Bits != depth {
				t.Fatalf("depth %d tile %d: leaf at %d bits", depth, i, tl.Bits)
			}
			iv := struct{ Start, End bitkey.Key }{tl.Start, tl.Start.AddPow2(uint(160 - tl.Bits))}
			if iv.Start != at {
				t.Fatalf("depth %d tile %d: starts at %v, previous ended at %v", depth, i, iv.Start, at)
			}
			if want := at.Add(bitkey.FromUint64(1).Shl(uint(160 - tl.Bits))); iv.End != want {
				t.Fatalf("depth %d tile %d: %d-bit node ends at %v, want %v", depth, i, tl.Bits, iv.End, want)
			}
			at = iv.End

			out := -1 // a halved dimension, if any
			for j := range pt {
				pt[j] = tl.Lo[j] + uint32(v.r.Intn(int(tl.Hi[j]-tl.Lo[j])))
				if tl.Hi[j]-tl.Lo[j] < c.SideLen() && (out < 0 || v.r.Intn(3) == 0) {
					out = j
				}
			}
			if k := c.Encode(pt); k.Cmp(iv.Start) < 0 || k.Cmp(iv.End) >= 0 {
				t.Fatalf("depth %d tile %d: inside point %v encodes to %v outside [%v,%v)", depth, i, pt, k, iv.Start, iv.End)
			}
			if out >= 0 {
				e := tl.Hi[out] - tl.Lo[out]
				if pt[out] = uint32(v.r.Intn(int(c.SideLen() - e))); pt[out] >= tl.Lo[out] {
					pt[out] += e
				}
				if k := c.Encode(pt); k.Cmp(iv.Start) >= 0 && k.Cmp(iv.End) < 0 {
					t.Fatalf("depth %d tile %d: outside point %v encodes to %v inside [%v,%v)", depth, i, pt, k, iv.Start, iv.End)
				}
			}
		}
		if want := bitkey.FromUint64(1).Shl(160); at != want {
			t.Fatalf("depth %d: tiles end at %v, want 2^160", depth, at)
		}
		if leaves == 0 || depth > 1 && leaves == len(v.tiles) {
			t.Fatalf("depth %d: %d leaves among %d tiles, test is vacuous", depth, leaves, len(v.tiles))
		}
	}
}
