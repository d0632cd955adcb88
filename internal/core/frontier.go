package core

import (
	"sort"

	"s3cbcd/internal/hilbert"
)

// This file implements the incremental frontier planner. The legacy
// threshold search (planStatLegacyCached) pays for every evaluation of
// P_sup(t) with a full pruned descent from the root — up to
// maxThresholdIters of them per query. But the block sets the descent
// selects are monotone in t: lowering t only expands nodes an earlier
// descent pruned, and raising t only discards already-discovered leaves.
// So one materialized descent suffices. The first evaluation records
// every pruned node with its mass and enough resumable state to continue
// below it; evaluations at lower thresholds expand exactly the
// frontier nodes whose mass now clears the threshold; evaluations at
// higher thresholds touch no curve state at all — they filter the
// accumulated leaf list by stored block mass.
//
// The planner is careful to be bit-identical to the legacy search, not
// just equivalent: every pruned node stores its running product, the
// factor a step divides out is read back bitwise from the mass cache
// (each one was computed through the cache when its node was reached),
// so a resumed expansion replays exactly the float operations a
// from-scratch descent would have performed below that node, and leaf
// masses are summed in curve order exactly as a single descent would have
// emitted them.

// frontierLeaf is one discovered depth-p block.
type frontierLeaf struct {
	start uint64  // the block's index at the planner's depth
	mass  float64 // the block's own mass (the visitor product at the leaf)
	// gate is the minimum running product along the root path, including
	// the leaf itself. A single descent at threshold t emits this leaf
	// iff every product on the path exceeds t, i.e. iff gate > t. For a
	// numerically monotone model gate == mass; carrying it separately
	// keeps the planner exact even when rounding makes a child product a
	// few ulps above its parent's.
	gate float64
}

// frontierState is the reusable per-worker state of the incremental
// planner: the discovered leaves (curve order), the frontier of pruned
// nodes, and the live visitor bookkeeping used during expansions. All of
// it resets by reslicing, so a pooled frontierState plans query after
// query without allocating.
type frontierState struct {
	curve *hilbert.Curve
	fd    *hilbert.FrontierDescent
	root  hilbert.Node

	// Per-query bindings.
	depth int
	mc    *massCache
	m     Model
	q     []float64

	// Live visitor state during one expansion. The per-dimension factors
	// are not kept: the factor of a dimension's current bound is its
	// mass-cache value, read when a step halves that dimension — so an
	// expansion restores nothing up front and pays only for the
	// dimensions it actually splits.
	t     float64
	prod  float64
	gate  float64
	stack []frontierFrame
	nodes int // Enter calls this query (descent nodes visited)

	// Prune handoff between Enter (which rejects) and the pruned
	// callback (which materializes the rejected child).
	pruneMass float64

	leaves  []frontierLeaf // discovered leaves, sorted by start
	scratch []frontierLeaf // merge double-buffer
	pending []frontierLeaf // leaves emitted by the current eval's expansions
	runs    []int          // where each expansion's leaves start in pending

	// The frontier: pruned node i is fmass[i], fgate[i], fpos[i] and the
	// 2*D bounds at bounds[i*2*D:], each written once and never moved.
	// fnext threads the nodes in curve order from node 0, the root (-1
	// ends the list): a node's expansion splices the nodes pruned below
	// it in right behind it, so a sweep meets them, and emits its leaves,
	// in curve order. Every evaluation expands ALL nodes above its
	// threshold, so no priority structure earns its keep; an expanded
	// node stays in the list with mass 0, below every threshold.
	fmass  []float64 // the node's running product (its prune decision value)
	fgate  []float64 // min running product along the root path, incl. the node
	fpos   []hilbert.Pos
	fnext  []int32
	bounds []uint32
	plan   []hilbert.Run

	// alias makes runsAt skip its defensive copy: the produced
	// plan's Intervals then share s.plan and are overwritten by the next
	// query that borrows this state. Only Engine.PlanStat sets it — the
	// one caller whose contract documents the aliasing — keeping the
	// untraced pooled plan path allocation-free.
	alias bool

	// pruned is prunedCB bound once at construction (see newFrontierState).
	pruned func(*hilbert.Node)
}

type frontierFrame struct {
	prod float64
	gate float64
}

func newFrontierState(curve *hilbert.Curve) *frontierState {
	s := &frontierState{
		curve: curve,
		fd:    curve.NewFrontierDescent(),
		root:  curve.RootNode(),
	}
	// Bind the pruned callback once: a method value created at the call
	// site would allocate on every node expansion.
	s.pruned = s.prunedCB
	return s
}

// begin binds the state to one query and seeds the frontier with the
// root node (mass 1 — the state a fresh descent starts in).
func (s *frontierState) begin(depth int, m Model, q []float64, mc *massCache) {
	s.depth, s.m, s.q, s.mc = depth, m, q, mc
	s.leaves = s.leaves[:0]
	s.scratch = s.scratch[:0]
	s.plan = s.plan[:0]
	s.nodes = 0
	s.fmass = append(s.fmass[:0], 1)
	s.fgate = append(s.fgate[:0], 1)
	s.fpos = append(s.fpos[:0], hilbert.Pos{})
	s.fnext = append(s.fnext[:0], -1)
	s.bounds = append(append(s.bounds[:0], s.root.Lo...), s.root.Hi...)
}

// expandTo lowers the materialized frontier to threshold t: every
// frontier node whose mass exceeds t is descended (at threshold t)
// exactly as the legacy search would have, emitting new leaves and
// splicing in newly pruned nodes. Thresholds at or above every stored
// mass make this a pure scan — the traversal-free fast path of
// evaluations that raise t. Nodes spliced in mid-sweep were just pruned
// at t, so the sweep steps over them.
func (s *frontierState) expandTo(t float64) {
	s.pending = s.pending[:0]
	s.runs = s.runs[:0]
	s.t = t
	d := s.curve.Dims()
	var node hilbert.Node
	for i, next := int32(0), int32(0); i >= 0; i = next {
		next = s.fnext[i]
		if s.fmass[i] <= t {
			continue
		}
		s.prod, s.gate = s.fmass[i], s.fgate[i]
		s.fmass[i] = 0
		s.stack = s.stack[:0]
		b := s.bounds[2*d*int(i) : 2*d*int(i+1)]
		node.Lo, node.Hi, node.Pos = b[:d], b[d:], s.fpos[i]
		first, off := len(s.fnext), len(s.pending)
		s.fd.Descend(&node, s.depth, s, s.pruned)
		if last := len(s.fnext); last > first {
			s.fnext[i], s.fnext[last-1] = int32(first), next
		}
		if len(s.pending) > off {
			s.runs = append(s.runs, off)
		}
	}
	if len(s.runs) > 0 {
		s.mergePending()
	}
}

// Enter implements hilbert.StepVisitor with the statistical filtering
// rule of statVisitor, additionally tracking the path-minimum product.
func (s *frontierState) Enter(dim int, lo, hi uint32) bool {
	s.nodes++
	idx := s.mc.slot(dim, lo, hi)
	np := s.prod / s.mc.parent(idx) * s.mc.at(idx, s.m, s.q, dim, lo, hi)
	if np <= s.t {
		s.pruneMass = np
		return false
	}
	s.stack = append(s.stack, frontierFrame{prod: s.prod, gate: s.gate})
	s.prod = np
	if np < s.gate {
		s.gate = np
	}
	return true
}

// Leave implements hilbert.StepVisitor.
func (s *frontierState) Leave(int) {
	fr := s.stack[len(s.stack)-1]
	s.stack = s.stack[:len(s.stack)-1]
	s.prod = fr.prod
	s.gate = fr.gate
}

// Leaf implements hilbert.StepVisitor.
func (s *frontierState) Leaf(b hilbert.Block) bool {
	s.pending = append(s.pending, frontierLeaf{start: b.Index, mass: s.prod, gate: s.gate})
	return true
}

// prunedCB materializes a rejected child into the frontier. Nodes whose
// mass cannot clear even the floor threshold are dropped: the search
// never evaluates below tFloor, so they are unreachable.
func (s *frontierState) prunedCB(n *hilbert.Node) {
	if s.pruneMass <= tFloor {
		return
	}
	gate := s.gate
	if s.pruneMass < gate {
		gate = s.pruneMass
	}
	s.fmass = append(s.fmass, s.pruneMass)
	s.fgate = append(s.fgate, gate)
	s.fpos = append(s.fpos, n.Pos)
	s.fnext = append(s.fnext, int32(len(s.fnext)+1)) // its curve-order successor, if it has one
	s.bounds = append(append(s.bounds, n.Lo...), n.Hi...)
}

// mergePending folds the current eval's expansion leaves into the sorted
// leaf list. Pending holds one sorted run per expanded node, in curve
// order like the frontier they were swept from; every run covers a curve
// interval disjoint from every other run and every existing leaf (dyadic
// intervals nest or are disjoint, and the frontier partitions the
// unexplored remainder), so splicing each run, whole, between the leaves
// on either side of it restores global curve order.
func (s *frontierState) mergePending() {
	rest, merged := s.leaves, s.scratch[:0]
	for k, off := range s.runs {
		run := s.pending[off:]
		if k+1 < len(s.runs) {
			run = s.pending[off:s.runs[k+1]]
		}
		n := sort.Search(len(rest), func(i int) bool { return rest[i].start >= run[0].start })
		merged = append(append(merged, rest[:n]...), run...)
		rest = rest[n:]
	}
	s.leaves, s.scratch = append(merged, rest...), s.leaves[:0]
}

// selectAt filters the discovered leaves at threshold t without touching
// the curve: exactly the leaves a fresh descent at t would emit, in the
// same order, summed in the same order.
func (s *frontierState) selectAt(t float64) (blocks int, mass float64) {
	for i := range s.leaves {
		if s.leaves[i].gate > t {
			blocks++
			mass += s.leaves[i].mass
		}
	}
	return blocks, mass
}

// runsAt returns the merged block runs of the selection at t.
// Unless s.alias is set the result is freshly allocated: plans outlive
// the pooled state.
func (s *frontierState) runsAt(t float64) []hilbert.Run {
	s.plan = s.plan[:0]
	for i := range s.leaves {
		if l := &s.leaves[i]; l.gate > t {
			s.plan = hilbert.AppendBlock(s.plan, l.start)
		}
	}
	if len(s.plan) == 0 {
		return nil // matches the legacy planner's empty result exactly
	}
	if s.alias {
		return s.plan
	}
	return append([]hilbert.Run(nil), s.plan...)
}
