package core

import (
	"math"
	"math/bits"

	"s3cbcd/internal/hilbert"
)

// massCache memoizes the per-dimension model mass of every dyadic
// interval a query's descents encounter. Block bounds are always dyadic
// (they come from repeated halving), so interval (lo, hi) of extent e
// has the unique id side/e + lo/e in [1, 2*side) — the root interval is
// 1 and the halves of id are 2*id and 2*id+1. The threshold search runs
// incremental expansions over overlapping node sets; the cache makes the
// repeats nearly free.
type massCache struct {
	side uint32
	// dimShift is log2(2*side): dimension dim owns slots [dim<<dimShift,
	// (dim+1)<<dimShift), indexed by interval id.
	dimShift uint
	// gen is the current query's generation. A slot is valid only when
	// gens[slot] == gen, so invalidating the whole cache is a single
	// increment instead of a rewrite of every value — the engine resets
	// the cache before each planned query, and the dims*2*side refill
	// (~10k floats at D=20, K=8) used to dominate small plans.
	gen  uint32
	gens []uint32
	vals []float64 // dims * (2*side) entries
}

func newMassCache(dims int, side uint32) *massCache {
	return &massCache{
		side:     side,
		dimShift: uint(bits.TrailingZeros32(side)) + 1,
		gen:      1,
		gens:     make([]uint32, dims*int(2*side)),
		vals:     make([]float64, dims*int(2*side)),
	}
}

// reset invalidates every entry in O(1) so the cache can be reused for a
// new query without reallocating — the engine's per-worker query contexts
// depend on this to keep the planning hot path allocation-free.
func (mc *massCache) reset() {
	mc.gen++
	if mc.gen == 0 {
		// Generation wraparound (once per 2^32 resets): stale slots could
		// collide with the restarted counter, so pay one full clear.
		for i := range mc.gens {
			mc.gens[i] = 0
		}
		mc.gen = 1
	}
}

// slot returns the cache slot of interval [lo, hi) of dimension dim.
// Extents are powers of two, so the id is two shifts, not two divides.
func (mc *massCache) slot(dim int, lo, hi uint32) int {
	return dim<<mc.dimShift | int((mc.side+lo)>>uint(bits.TrailingZeros32(hi-lo)))
}

// get returns P(ΔS_dim puts the reference inside [lo, hi)) under model m
// for query coordinate q, extending edge intervals to infinity (reference
// fingerprints cannot lie outside the grid, so tail mass belongs to the
// boundary blocks) and centring unit cells on integer coordinates.
func (mc *massCache) get(m Model, q []float64, dim int, lo, hi uint32) float64 {
	return mc.at(mc.slot(dim, lo, hi), m, q, dim, lo, hi)
}

// at is get for a caller that already holds the interval's slot.
func (mc *massCache) at(idx int, m Model, q []float64, dim int, lo, hi uint32) float64 {
	if mc.gens[idx] == mc.gen {
		return mc.vals[idx]
	}
	return mc.fill(idx, m, q, dim, lo, hi)
}

func (mc *massCache) fill(idx int, m Model, q []float64, dim int, lo, hi uint32) float64 {
	a, b := float64(lo)-0.5, float64(hi)-0.5
	if lo == 0 {
		a = math.Inf(-1)
	}
	if hi == mc.side {
		b = math.Inf(1)
	}
	v := m.ComponentMass(dim, a-q[dim], b-q[dim])
	mc.vals[idx] = v
	mc.gens[idx] = mc.gen
	return v
}

// parent returns the factor a descent carries for a dimension before it
// halves it to the interval of slot idx: the cached mass of the
// enclosing interval — the half an ancestor step entered through get in
// this same query, so the slot holds that very value — or 1 while the
// dimension is still whole.
func (mc *massCache) parent(idx int) float64 {
	id := idx & (1<<mc.dimShift - 1)
	if id>>1 == 1 {
		return 1
	}
	return mc.vals[idx-id+id>>1]
}

// statVisitor implements the statistical filtering rule incrementally:
// the node mass is a product of one factor per dimension, and every
// descent step replaces exactly one factor. One visitor serves every
// descent of a threshold search — reset repositions it at the root
// without reallocating its factor, stack, or interval storage.
type statVisitor struct {
	mc      *massCache
	m       Model
	q       []float64
	t       float64
	factors []float64 // current factor per dimension (1 at the root)
	prod    float64   // current node mass
	stack   []statFrame
	runs    []hilbert.Run
	blocks  int
	total   float64
	nodes   int // Enter calls across all descents since construction
}

type statFrame struct {
	dim    int
	factor float64
	prod   float64
}

func newStatVisitor(mc *massCache, m Model, q []float64, t float64) *statVisitor {
	v := &statVisitor{mc: mc, m: m, q: q, t: t,
		factors: make([]float64, len(q)), prod: 1,
		stack: make([]statFrame, 0, 256),
	}
	for i := range v.factors {
		v.factors[i] = 1
	}
	return v
}

// reset repositions the visitor at the root for a fresh descent at
// threshold t, reusing every buffer. The cumulative node counter is
// preserved; it spans the whole threshold search.
func (v *statVisitor) reset(t float64) {
	v.t = t
	v.prod = 1
	for i := range v.factors {
		v.factors[i] = 1
	}
	v.stack = v.stack[:0]
	v.runs = v.runs[:0]
	v.blocks = 0
	v.total = 0
}

// Enter implements hilbert.StepVisitor. The division is safe: factor[dim]
// bounds the parent mass from above and the parent survived mass > t > 0.
func (v *statVisitor) Enter(dim int, lo, hi uint32) bool {
	v.nodes++
	f := v.mc.get(v.m, v.q, dim, lo, hi)
	np := v.prod / v.factors[dim] * f
	if np <= v.t {
		return false
	}
	v.stack = append(v.stack, statFrame{dim: dim, factor: v.factors[dim], prod: v.prod})
	v.factors[dim] = f
	v.prod = np
	return true
}

// Leave implements hilbert.StepVisitor.
func (v *statVisitor) Leave(int) {
	fr := v.stack[len(v.stack)-1]
	v.stack = v.stack[:len(v.stack)-1]
	v.factors[fr.dim] = fr.factor
	v.prod = fr.prod
}

// Leaf implements hilbert.StepVisitor. Leaves arrive in curve order, so
// appending each extends the merged plan as emitted.
func (v *statVisitor) Leaf(b hilbert.Block) bool {
	v.total += v.prod
	v.blocks++
	v.runs = hilbert.AppendBlock(v.runs, b.Index)
	return true
}

// rangeVisitor implements the geometric filtering rule incrementally: the
// squared distance from the query to a node rectangle is a sum of one
// term per dimension.
type rangeVisitor struct {
	q       []float64
	epsSq   float64
	contrib []float64
	sum     float64
	stack   []rangeFrame
	runs    []hilbert.Run
	blocks  int
	nodes   int
}

type rangeFrame struct {
	dim     int
	contrib float64
}

func newRangeVisitor(q []float64, eps float64) *rangeVisitor {
	return &rangeVisitor{q: q, epsSq: eps * eps,
		contrib: make([]float64, len(q)),
		stack:   make([]rangeFrame, 0, 256),
	}
}

// dimDistSq is the squared distance from coordinate v to the nearest
// integer grid point in [lo, hi).
func dimDistSq(v float64, lo, hi uint32) float64 {
	if lov := float64(lo); v < lov {
		d := lov - v
		return d * d
	}
	if hiv := float64(hi - 1); v > hiv {
		d := v - hiv
		return d * d
	}
	return 0
}

// Enter implements hilbert.StepVisitor.
func (v *rangeVisitor) Enter(dim int, lo, hi uint32) bool {
	v.nodes++
	c := dimDistSq(v.q[dim], lo, hi)
	ns := v.sum - v.contrib[dim] + c
	if ns > v.epsSq {
		return false
	}
	v.stack = append(v.stack, rangeFrame{dim: dim, contrib: v.contrib[dim]})
	v.contrib[dim] = c
	v.sum = ns
	return true
}

// Leave implements hilbert.StepVisitor.
func (v *rangeVisitor) Leave(int) {
	fr := v.stack[len(v.stack)-1]
	v.stack = v.stack[:len(v.stack)-1]
	v.sum += fr.contrib - v.contrib[fr.dim]
	v.contrib[fr.dim] = fr.contrib
}

// Leaf implements hilbert.StepVisitor. Leaves arrive in curve order, so
// a block that abuts the previous one extends its run: runs is the
// merged plan as emitted, with no post-pass over tens of thousands of
// p-blocks.
func (v *rangeVisitor) Leaf(b hilbert.Block) bool {
	v.blocks++
	v.runs = hilbert.AppendBlock(v.runs, b.Index)
	return true
}
