package core

import (
	"math"
	"math/rand"
	"testing"

	"s3cbcd/internal/hilbert"
)

func TestMassCacheMatchesDirectComputation(t *testing.T) {
	m := IsoNormal{D: 4, Sigma: 9}
	q := []float64{10, 250, 128, 64}
	mc := newMassCache(4, 256)
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		dim := r.Intn(4)
		// Random dyadic interval of [0,256).
		level := r.Intn(9)
		e := uint32(256 >> uint(level))
		lo := uint32(r.Intn(1<<uint(level))) * e
		hi := lo + e
		got := mc.get(m, q, dim, lo, hi)
		a, b := float64(lo)-0.5, float64(hi)-0.5
		if lo == 0 {
			a = math.Inf(-1)
		}
		if hi == 256 {
			b = math.Inf(1)
		}
		want := m.ComponentMass(dim, a-q[dim], b-q[dim])
		if math.Abs(got-want) > 1e-15 {
			t.Fatalf("dim %d [%d,%d): got %v want %v", dim, lo, hi, got, want)
		}
		// Second lookup must hit the cache and agree.
		if again := mc.get(m, q, dim, lo, hi); again != got {
			t.Fatalf("cache changed value: %v vs %v", again, got)
		}
	}
}

// TestStatVisitorLeafMassMatchesBlockMass cross-checks the incremental
// product maintained by the visitor against the direct full-product
// computation for every surviving leaf.
func TestStatVisitorLeafMassMatchesBlockMass(t *testing.T) {
	curve := hilbert.MustNew(5, 6)
	m := IsoNormal{D: 5, Sigma: 7}
	q := []float64{3, 60, 31, 17, 45}
	mc := newMassCache(5, curve.SideLen())
	const threshold = 1e-6
	v := newStatVisitor(mc, m, q, threshold)

	type leaf struct {
		mass   float64
		lo, hi []uint32
	}
	var leaves []leaf
	check := &statCrossCheck{inner: v, onLeaf: func(b hilbert.Block, mass float64) {
		leaves = append(leaves, leaf{
			mass: mass,
			lo:   append([]uint32(nil), b.Lo...),
			hi:   append([]uint32(nil), b.Hi...),
		})
	}}
	curve.DescendSteps(12, check)
	if len(leaves) == 0 {
		t.Fatal("no leaves survived")
	}
	for i, lf := range leaves {
		want := blockMass(m, q, lf.lo, lf.hi, curve.SideLen(), 0)
		if math.Abs(lf.mass-want) > 1e-12*(1+want) {
			t.Fatalf("leaf %d: incremental %v, direct %v", i, lf.mass, want)
		}
		if want <= threshold {
			t.Fatalf("leaf %d below threshold survived: %v", i, want)
		}
	}
}

// statCrossCheck wraps a statVisitor to observe leaf masses.
type statCrossCheck struct {
	inner  *statVisitor
	onLeaf func(b hilbert.Block, mass float64)
}

func (c *statCrossCheck) Enter(dim int, lo, hi uint32) bool {
	return c.inner.Enter(dim, lo, hi)
}
func (c *statCrossCheck) Leave(dim int) { c.inner.Leave(dim) }
func (c *statCrossCheck) Leaf(b hilbert.Block) bool {
	c.onLeaf(b, c.inner.prod)
	return c.inner.Leaf(b)
}

// TestStatDescentCompleteness verifies that no block with mass above the
// threshold is missed: the visitor's selected intervals must contain
// every depth-p block whose directly computed mass exceeds t.
func TestStatDescentCompleteness(t *testing.T) {
	curve := hilbert.MustNew(4, 5)
	m := IsoNormal{D: 4, Sigma: 5}
	q := []float64{8, 24, 3, 30}
	const tthr = 1e-5
	pl := &Planner{curve: curve, depth: 10}
	mc := newMassCache(4, curve.SideLen())
	ivs, _, total := pl.statDescent(newStatVisitor(mc, m, q, tthr), tthr)

	inIvs := func(b hilbert.Block) bool { return runsHold(ivs, b.Index) }
	sum := 0.0
	curve.Descend(10, nil, func(b hilbert.Block) bool {
		mass := blockMass(m, q, b.Lo, b.Hi, curve.SideLen(), 0)
		if mass > tthr && !inIvs(b) {
			t.Fatalf("block %d mass %v above threshold missed", b.Index, mass)
		}
		if mass > tthr {
			sum += mass
		}
		return true
	})
	if math.Abs(sum-total) > 1e-9 {
		t.Fatalf("visitor total %v, brute force %v", total, sum)
	}
}

// TestRangeVisitorAgreesWithBruteForce checks the incremental distance
// bookkeeping: the set of selected blocks equals the blocks whose
// rectangle is within eps of the query.
func TestRangeVisitorAgreesWithBruteForce(t *testing.T) {
	curve := hilbert.MustNew(4, 5)
	q := []float64{4, 28, 16, 9}
	const eps = 11.0
	pl := &Planner{curve: curve, depth: 11}
	plan := pl.planRangeFloat(q, eps)

	inPlan := func(b hilbert.Block) bool { return runsHold(plan.Intervals, b.Index) }
	curve.Descend(11, nil, func(b hilbert.Block) bool {
		s := 0.0
		for j := range b.Lo {
			s += dimDistSq(q[j], b.Lo[j], b.Hi[j])
		}
		want := s <= eps*eps
		if want != inPlan(b) {
			t.Fatalf("block %d: brute %v, visitor %v (distSq %v)", b.Index, want, inPlan(b), s)
		}
		return true
	})
}

func TestDimDistSq(t *testing.T) {
	if got := dimDistSq(5, 3, 8); got != 0 {
		t.Errorf("inside: %v", got)
	}
	if got := dimDistSq(1, 3, 8); got != 4 {
		t.Errorf("below: %v", got)
	}
	if got := dimDistSq(9.5, 3, 8); got != 6.25 {
		t.Errorf("above: %v (nearest integer point is hi-1=7)", got)
	}
}

// runsHold reports whether block b lies in one of the runs.
func runsHold(runs []hilbert.Run, b uint64) bool {
	for _, r := range runs {
		if r.Lo <= b && b < r.Hi {
			return true
		}
	}
	return false
}
