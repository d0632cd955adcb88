package hilbert

import (
	"testing"

	"s3cbcd/internal/bitkey"
)

type blockCopy struct {
	lo, hi     []uint32
	start, end bitkey.Key
	index      uint64
}

func collectBlocks(c *Curve, depth int, keep Keep) []blockCopy {
	var out []blockCopy
	c.Descend(depth, keep, func(b Block) bool {
		out = append(out, blockCopy{
			lo:    append([]uint32(nil), b.Lo...),
			hi:    append([]uint32(nil), b.Hi...),
			start: b.Start,
			end:   b.Start.AddPow2(uint(c.IndexBits() - b.Depth)),
			index: b.Index,
		})
		return true
	})
	return out
}

// TestBlocksTileCurve verifies that for every p the blocks' curve
// intervals exactly tile [0, 2^(K*D)) in order, and that each block's
// rectangle contains exactly the cells its curve interval visits.
func TestBlocksTileCurveAndMatchCells(t *testing.T) {
	configs := [][2]int{{2, 4}, {3, 3}, {4, 2}, {5, 2}}
	for _, cfg := range configs {
		c := MustNew(cfg[0], cfg[1])
		total := c.IndexBits()
		for p := 0; p <= total; p++ {
			blocks := collectBlocks(c, p, nil)
			if len(blocks) != 1<<uint(p) {
				t.Fatalf("D=%d K=%d p=%d: %d blocks, want %d", cfg[0], cfg[1], p, len(blocks), 1<<uint(p))
			}
			want := bitkey.Zero
			cellsPerBlock := bitkey.FromUint64(1).Shl(uint(total - p))
			for i, b := range blocks {
				if b.start != want {
					t.Fatalf("p=%d block %d: start %v, want %v", p, i, b.start, want)
				}
				if b.end != want.Add(cellsPerBlock) {
					t.Fatalf("p=%d block %d: end %v, want %v", p, i, b.end, want.Add(cellsPerBlock))
				}
				want = b.end
				// Volume check: product of extents == 2^(total-p).
				vol := uint64(1)
				for j := range b.lo {
					if b.hi[j] <= b.lo[j] {
						t.Fatalf("p=%d block %d: empty extent dim %d", p, i, j)
					}
					vol *= uint64(b.hi[j] - b.lo[j])
				}
				if vol != cellsPerBlock.Uint64() {
					t.Fatalf("p=%d block %d: volume %d, want %d", p, i, vol, cellsPerBlock.Uint64())
				}
			}
			if p <= 8 && total <= 16 {
				verifyBlockCells(t, c, blocks)
			}
		}
	}
}

// verifyBlockCells decodes every curve index and checks it lands inside
// the rectangle of the block whose interval covers the index.
func verifyBlockCells(t *testing.T, c *Curve, blocks []blockCopy) {
	t.Helper()
	pt := make([]uint32, c.Dims())
	n := uint64(1) << uint(c.IndexBits())
	bi := 0
	for i := uint64(0); i < n; i++ {
		h := bitkey.FromUint64(i)
		for blocks[bi].end.Cmp(h) <= 0 {
			bi++
		}
		b := blocks[bi]
		c.Decode(h, pt)
		for j := range pt {
			if pt[j] < b.lo[j] || pt[j] >= b.hi[j] {
				t.Fatalf("index %d decodes to %v outside block [%v,%v)", i, pt, b.lo, b.hi)
			}
		}
	}
}

// TestDescendPruning checks that a geometric keep rule yields exactly the
// blocks of the unpruned enumeration that satisfy the rule.
func TestDescendPruning(t *testing.T) {
	c := MustNew(3, 4)
	// Keep blocks intersecting the axis-aligned box [4,9)^3.
	boxLo, boxHi := uint32(4), uint32(9)
	intersects := func(lo, hi []uint32) bool {
		for j := range lo {
			if hi[j] <= boxLo || lo[j] >= boxHi {
				return false
			}
		}
		return true
	}
	for p := 1; p <= c.IndexBits(); p++ {
		all := collectBlocks(c, p, nil)
		var want []blockCopy
		for _, b := range all {
			if intersects(b.lo, b.hi) {
				want = append(want, b)
			}
		}
		got := collectBlocks(c, p, intersects)
		if len(got) != len(want) {
			t.Fatalf("p=%d: pruned %d blocks, want %d", p, len(got), len(want))
		}
		for i := range got {
			if got[i].start != want[i].start || got[i].end != want[i].end {
				t.Fatalf("p=%d block %d differs", p, i)
			}
		}
	}
}

func TestDescendEarlyStop(t *testing.T) {
	c := MustNew(2, 3)
	count := 0
	c.Descend(4, nil, func(b Block) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("emitted %d blocks after early stop, want 3", count)
	}
}

func TestDescendDepthZero(t *testing.T) {
	c := MustNew(2, 2)
	blocks := collectBlocks(c, 0, nil)
	if len(blocks) != 1 {
		t.Fatalf("depth 0: %d blocks", len(blocks))
	}
	b := blocks[0]
	if b.lo[0] != 0 || b.hi[0] != 4 || b.start != bitkey.Zero || b.end.Uint64() != 16 {
		t.Fatalf("depth 0 block wrong: %+v", b)
	}
}

func TestDescendPanicsOnBadDepth(t *testing.T) {
	c := MustNew(2, 2)
	assertPanics(t, func() { c.Descend(-1, nil, func(Block) bool { return true }) })
	assertPanics(t, func() { c.Descend(9, nil, func(Block) bool { return true }) })
}

// TestAppendBlock: blocks appended in curve order merge into runs.
func TestAppendBlock(t *testing.T) {
	var runs []Run
	for _, b := range []uint64{0, 1, 2, 3, 5, 6, 9} {
		runs = AppendBlock(runs, b)
	}
	want := []Run{{0, 4}, {5, 7}, {9, 10}}
	if len(runs) != len(want) {
		t.Fatalf("merged to %v, want %v", runs, want)
	}
	for i := range want {
		if runs[i] != want[i] {
			t.Fatalf("run %d = %v, want %v", i, runs[i], want[i])
		}
	}
}

// TestRunRescale: a run moved to a finer depth covers the same curve
// interval; moved to a coarser one, the coarse blocks it touches.
func TestRunRescale(t *testing.T) {
	for _, c := range []struct {
		r        Run
		from, to int
		want     Run
	}{
		{Run{3, 5}, 4, 4, Run{3, 5}},
		{Run{3, 5}, 4, 6, Run{12, 20}},
		{Run{3, 5}, 4, 2, Run{0, 2}},
		{Run{4, 8}, 4, 2, Run{1, 2}},
		{Run{5, 9}, 4, 2, Run{1, 3}},
		{Run{0, 1 << 20}, 20, MaxDepth, Run{0, 1 << MaxDepth}},
		{Run{1<<MaxDepth - 1, 1 << MaxDepth}, MaxDepth, 1, Run{1, 2}},
	} {
		if got := c.r.Rescale(c.from, c.to); got != c.want {
			t.Errorf("%v from depth %d to %d = %v, want %v", c.r, c.from, c.to, got, c.want)
		}
	}
}

// TestPaperFigure2Shapes reproduces the qualitative content of Figure 2:
// for D=2, K=4 the partitions at p=3,4,5 consist of 2^p rectangles of
// equal volume whose shapes are the two orientations of a 2:1 rectangle
// (odd p) or squares (even p).
func TestPaperFigure2Shapes(t *testing.T) {
	c := MustNew(2, 4)
	for _, p := range []int{3, 4, 5} {
		blocks := collectBlocks(c, p, nil)
		for _, b := range blocks {
			w := b.hi[0] - b.lo[0]
			h := b.hi[1] - b.lo[1]
			if p%2 == 0 {
				if w != h {
					t.Fatalf("p=%d even: block %dx%d not square", p, w, h)
				}
			} else {
				if w != 2*h && h != 2*w {
					t.Fatalf("p=%d odd: block %dx%d not 2:1", p, w, h)
				}
			}
		}
	}
}
