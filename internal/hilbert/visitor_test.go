package hilbert

import (
	"math/rand"
	"testing"
	"testing/quick"

	"s3cbcd/internal/bitkey"
)

// recordingVisitor checks the Enter/Leave protocol and collects leaves.
type recordingVisitor struct {
	t        *testing.T
	c        *Curve
	prune    func(dim int, lo, hi uint32) bool
	stack    []int // dims entered
	leaves   []blockCopy
	maxDepth int
	stopAt   int // stop after this many leaves (0 = never)
}

func (v *recordingVisitor) Enter(dim int, lo, hi uint32) bool {
	if dim < 0 || dim >= v.c.Dims() {
		v.t.Fatalf("Enter dim %d out of range", dim)
	}
	if hi <= lo || hi > v.c.SideLen() {
		v.t.Fatalf("Enter bounds [%d,%d) invalid", lo, hi)
	}
	if v.prune != nil && v.prune(dim, lo, hi) {
		return false
	}
	v.stack = append(v.stack, dim)
	if len(v.stack) > v.maxDepth {
		v.maxDepth = len(v.stack)
	}
	return true
}

func (v *recordingVisitor) Leave(dim int) {
	if len(v.stack) == 0 {
		v.t.Fatal("Leave with empty stack")
	}
	top := v.stack[len(v.stack)-1]
	if top != dim {
		v.t.Fatalf("Leave(%d) does not match Enter(%d)", dim, top)
	}
	v.stack = v.stack[:len(v.stack)-1]
}

func (v *recordingVisitor) Leaf(b Block) bool {
	v.leaves = append(v.leaves, blockCopy{
		lo:    append([]uint32(nil), b.Lo...),
		hi:    append([]uint32(nil), b.Hi...),
		start: b.Start,
		end:   b.Start.AddPow2(uint(v.c.IndexBits() - b.Depth)),
	})
	return v.stopAt == 0 || len(v.leaves) < v.stopAt
}

func TestDescendStepsMatchesDescend(t *testing.T) {
	configs := [][2]int{{2, 4}, {3, 3}, {5, 2}}
	for _, cfg := range configs {
		c := MustNew(cfg[0], cfg[1])
		for p := 0; p <= c.IndexBits(); p += 3 {
			want := collectBlocks(c, p, nil)
			v := &recordingVisitor{t: t, c: c}
			c.DescendSteps(p, v)
			if len(v.stack) != 0 {
				t.Fatalf("unbalanced Enter/Leave: %d left", len(v.stack))
			}
			if len(v.leaves) != len(want) {
				t.Fatalf("D=%d K=%d p=%d: %d leaves, want %d", cfg[0], cfg[1], p, len(v.leaves), len(want))
			}
			for i := range want {
				got := v.leaves[i]
				if got.start != want[i].start || got.end != want[i].end {
					t.Fatalf("leaf %d interval differs", i)
				}
				for j := range want[i].lo {
					if got.lo[j] != want[i].lo[j] || got.hi[j] != want[i].hi[j] {
						t.Fatalf("leaf %d bounds differ", i)
					}
				}
			}
			if p > 0 && v.maxDepth != p {
				t.Fatalf("max stack depth %d, want %d", v.maxDepth, p)
			}
		}
	}
}

func TestDescendStepsPruning(t *testing.T) {
	c := MustNew(3, 4)
	// Prune every subtree whose dim-0 bound drops below the upper half.
	prune := func(dim int, lo, hi uint32) bool {
		return dim == 0 && hi <= 8
	}
	v := &recordingVisitor{t: t, c: c, prune: prune}
	c.DescendSteps(9, v)
	if len(v.leaves) == 0 {
		t.Fatal("everything pruned")
	}
	for i, b := range v.leaves {
		if b.lo[0] < 8 {
			t.Fatalf("leaf %d at lo[0]=%d survived the prune", i, b.lo[0])
		}
	}
	// Compare against the generic Descend with the equivalent keep rule.
	want := collectBlocks(c, 9, func(lo, hi []uint32) bool { return hi[0] > 8 })
	if len(v.leaves) != len(want) {
		t.Fatalf("steps pruned to %d leaves, generic to %d", len(v.leaves), len(want))
	}
}

func TestDescendStepsEarlyStop(t *testing.T) {
	c := MustNew(2, 4)
	v := &recordingVisitor{t: t, c: c, stopAt: 5}
	c.DescendSteps(6, v)
	if len(v.leaves) != 5 {
		t.Fatalf("stopped at %d leaves, want 5", len(v.leaves))
	}
}

func TestDescendStepsDepthZero(t *testing.T) {
	c := MustNew(2, 3)
	v := &recordingVisitor{t: t, c: c}
	c.DescendSteps(0, v)
	if len(v.leaves) != 1 || v.leaves[0].end.Uint64() != 64 {
		t.Fatalf("depth-0 leaves: %+v", v.leaves)
	}
}

// TestQuickRoundTripPaperCurve property-tests the paper's D=20, K=8 curve.
func TestQuickRoundTripPaperCurve(t *testing.T) {
	c := MustNew(20, 8)
	back := make([]uint32, 20)
	f := func(raw [20]byte) bool {
		pt := make([]uint32, 20)
		for i, b := range raw {
			pt[i] = uint32(b)
		}
		c.Decode(c.Encode(pt), back)
		for i := range pt {
			if back[i] != pt[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickKeyOrderIsCurveOrder checks that sorting by encoded key equals
// sorting by curve position for random points, i.e. the store's physical
// order is exactly the curve order.
func TestQuickKeyOrderIsCurveOrder(t *testing.T) {
	c := MustNew(6, 5)
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		a := make([]uint32, 6)
		b := make([]uint32, 6)
		for j := range a {
			a[j] = uint32(r.Intn(32))
			b[j] = uint32(r.Intn(32))
		}
		ka, kb := c.Encode(a), c.Encode(b)
		if ka == kb {
			same := true
			for j := range a {
				if a[j] != b[j] {
					same = false
				}
			}
			if !same {
				t.Fatalf("distinct points share key %v", ka)
			}
		}
	}
	_ = bitkey.Zero
}
