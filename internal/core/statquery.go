package core

import (
	"fmt"
	"math"
	"sort"

	"s3cbcd/internal/hilbert"
	"s3cbcd/internal/store"
)

// StatQuery parameterizes a statistical query of expectation Alpha under
// distortion model Model (eq. 1 of the paper).
type StatQuery struct {
	// Alpha is the query expectation in (0, 1): the minimum probability,
	// under Model, that the relevant fingerprint lies in the retrieved
	// region Vα.
	Alpha float64
	// Model is the distortion model p_ΔS.
	Model Model
}

func (sq StatQuery) validate(dims int) error {
	// The negated form rejects NaN as well: a NaN α compares false against
	// every bound and would otherwise reach the threshold search (and the
	// plan cache key) as a "valid" expectation.
	if !(sq.Alpha > 0 && sq.Alpha < 1) {
		return fmt.Errorf("core: query expectation alpha=%v outside (0,1)", sq.Alpha)
	}
	return validateModel(sq.Model, dims)
}

// Plan is the outcome of a filtering step: the block runs to scan plus
// diagnostics. It performs no database access; Plans can therefore
// be computed for many queries before any section of a disk-resident
// database is loaded (the pseudo-disk strategy).
type Plan struct {
	// Intervals are the selected blocks as runs of block indices at Depth,
	// merged and in curve order: sorted, disjoint and non-adjacent.
	Intervals []hilbert.Run
	// Blocks is the number of p-blocks selected (card(Bα)).
	Blocks int
	// Mass is the achieved probability sum P_sup(t_max) >= α for
	// statistical plans; 0 for geometric plans.
	Mass float64
	// Threshold is the final block-mass threshold t_max for statistical
	// plans; 0 for geometric plans.
	Threshold float64
	// FilterIters is the number of threshold evaluations the search used;
	// 1 for geometric plans.
	FilterIters int
	// DescentNodes is the number of partition-tree nodes the filtering
	// step visited. The frontier planner visits each node at most once
	// across the whole threshold search; the legacy multi-descent search
	// revisits shared prefixes on every evaluation.
	DescentNodes int
	// Depth is the partition depth the plan was computed at.
	Depth int
}

// maxThresholdIters bounds the Newton-inspired threshold search. Each
// iteration is one threshold evaluation; the bracket shrinks
// geometrically, so 40 iterations resolve t_max to a relative precision
// far below the mass granularity of individual blocks.
const maxThresholdIters = 40

// tFloor is the smallest block-mass threshold the search will use. Blocks
// below this mass are irrelevant at any practical α.
const tFloor = 1e-18

// bracketStep is the geometric factor of the downward bracket walk. The
// walk stops at the first feasible threshold, which can undershoot t_max
// by up to this factor — and the frontier planner's traversal work is one
// descent at the lowest threshold evaluated, so the overshoot directly
// sizes the frontier expansion. A gentle step bounds that waste; the
// extra evaluations it causes are nearly free on the frontier path
// (raising t is traversal-free, and each lowering step only expands the
// margin the previous step rejected).
const bracketStep = 2

// thresholdTol terminates the secant refinement once the bracket has
// shrunk to tHi/tLo <= thresholdTol. The frontier planner made
// refinement evaluations traversal-free (every probe sits above the
// lowest threshold already expanded), so a tight tolerance costs almost
// nothing on the production path and yields a final threshold — hence a
// block set — closer to the true minimum.
const thresholdTol = 1.1

// PlanStat runs the statistical filtering step of Section IV-A for query
// fingerprint q: it finds t_max, the largest per-block mass threshold
// whose block set B(t) still carries total probability >= α (eq. 4),
// which yields (a close approximation of) the minimal block set Bα^min.
//
// The search is served by the incremental frontier planner: one pruned
// descent materializes the frontier of rejected nodes, and every further
// threshold evaluation either expands part of that frontier (lower t) or
// filters the accumulated leaves with no traversal at all (higher t).
// The returned Plan is bit-identical to PlanStatLegacy's.
func (pl *Planner) PlanStat(q []byte, sq StatQuery) (Plan, error) {
	if err := sq.validate(pl.dims()); err != nil {
		return Plan{}, err
	}
	qf, err := queryPoint(q, pl.dims())
	if err != nil {
		return Plan{}, err
	}
	return pl.planStatFloat(qf, sq), nil
}

// planStatFloat plans with pooled scratch.
func (pl *Planner) planStatFloat(qf []float64, sq StatQuery) Plan {
	ps := pl.getScratch()
	defer pl.scratch.Put(ps)
	return pl.planStatFrontier(qf, sq, ps.mc, ps.fs)
}

// planStatFrontier runs the threshold search on the incremental frontier
// planner at the planner's depth. mc must be fresh or reset; fs is
// rebound to this query. The control flow mirrors planStatLegacyCached
// exactly — same threshold sequence, same bracket updates — so the two
// return bit-identical plans; only the cost of an evaluation differs.
func (pl *Planner) planStatFrontier(qf []float64, sq StatQuery, mc *massCache, fs *frontierState) Plan {
	fs.begin(pl.depth, sq.Model, qf, mc)
	iters := 0
	eval := func(t float64) (int, float64) {
		iters++
		fs.expandTo(t)
		return fs.selectAt(t)
	}
	done := func(t float64, blocks int, mass float64) Plan {
		return Plan{Intervals: fs.runsAt(t), Blocks: blocks, Mass: mass,
			Threshold: t, FilterIters: iters, DescentNodes: fs.nodes, Depth: pl.depth}
	}

	// Bracket t_max from above: evaluations at high thresholds prune hard
	// and are cheap, so we walk down geometrically until the block set
	// first reaches mass α. Each step expands only the frontier nodes the
	// previous step rejected — the sum of all steps does the traversal
	// work of ONE descent at the lowest threshold reached.
	//
	// The walk deliberately ignores maxThresholdIters: it must end on a
	// feasible threshold (or the floor), because the returned tLo is what
	// covers Vα — stopping early on an infeasible threshold would silently
	// under-cover the region. When the walk alone exhausts the budget,
	// FilterIters exceeds maxThresholdIters, the secant refinement below is
	// skipped entirely, and the plan is returned at the feasible bracket
	// end with tHi/tLo still wider than thresholdTol: a valid superset of
	// the minimal block set (mass >= α), just less tight. The bracket-walk
	// regression test pins this contract.
	tHi := (1 - sq.Alpha) / 4
	massHi := 0.0
	tLo := tHi
	blocks, mass := eval(tLo)
	for mass < sq.Alpha && tLo > tFloor {
		tHi, massHi = tLo, mass
		tLo /= bracketStep
		if tLo < tFloor {
			tLo = tFloor
		}
		blocks, mass = eval(tLo)
	}
	if mass < sq.Alpha {
		// Even the floor threshold cannot reach α (pathological model);
		// return the floor plan — it is the best the partition offers.
		return done(tLo, blocks, mass)
	}
	if tHi <= tLo {
		// The initial threshold was already feasible: expand upward until
		// infeasible to bracket t_max. Raising t needs no curve work at
		// all — the accumulated leaves are refiltered by stored mass.
		for iters < maxThresholdIters {
			tNext := tLo * 16
			if tNext >= 1 {
				tHi, massHi = 1, 0
				break
			}
			blocksN, massN := eval(tNext)
			if massN < sq.Alpha {
				tHi, massHi = tNext, massN
				break
			}
			tLo, blocks, mass = tNext, blocksN, massN
		}
	}
	// Newton-inspired refinement on [tLo feasible, tHi infeasible]: a
	// secant step on (log t, P_sup) aimed at α, guarded toward the
	// geometric mean so the bracket always shrinks by a useful factor.
	// Every probe lies inside the bracket, above the lowest threshold
	// already expanded, so this entire loop is traversal-free.
	for iters < maxThresholdIters && tHi/tLo > thresholdTol {
		tMid := math.Sqrt(tLo * tHi)
		if massHi < sq.Alpha && mass > massHi {
			frac := (mass - sq.Alpha) / (mass - massHi)
			if tSec := math.Exp(math.Log(tLo) + frac*(math.Log(tHi)-math.Log(tLo))); tSec > tLo*1.1 && tSec < tHi/1.1 {
				tMid = tSec
			}
		}
		blocksMid, massMid := eval(tMid)
		if massMid >= sq.Alpha {
			tLo, blocks, mass = tMid, blocksMid, massMid
		} else {
			tHi, massHi = tMid, massMid
		}
	}
	return done(tLo, blocks, mass)
}

// PlanStatLegacy is the multi-descent threshold search the frontier
// planner replaced: every threshold evaluation is a full pruned descent
// from the root. It is retained as the reference implementation — the
// planner equivalence property tests and BenchmarkPlanStatLegacy compare
// against it — and as the paper-faithful baseline for ablations.
func (ix *Index) PlanStatLegacy(q []byte, sq StatQuery) (Plan, error) {
	if err := sq.validate(ix.db.Dims()); err != nil {
		return Plan{}, err
	}
	qf, err := queryPoint(q, ix.db.Dims())
	if err != nil {
		return Plan{}, err
	}
	return ix.planStatLegacyCached(qf, sq, newMassCache(ix.dims(), ix.curve.SideLen())), nil
}

// statDescent runs one pruned descent at threshold t on the pooled
// visitor v, which is reset first (its buffers and the shared mass cache
// carry over between descents). The returned runs alias v.runs.
func (pl *Planner) statDescent(v *statVisitor, t float64) ([]hilbert.Run, int, float64) {
	v.reset(t)
	pl.curve.DescendSteps(pl.depth, v)
	return v.runs, v.blocks, v.total
}

// planStatLegacyCached is the legacy search with a caller-provided mass
// cache, which must be fresh or reset. One statVisitor serves all
// descents; run buffers double-buffer between the visitor and the
// currently-retained result so the whole search allocates only when a
// buffer first grows.
func (pl *Planner) planStatLegacyCached(qf []float64, sq StatQuery, mc *massCache) Plan {
	v := newStatVisitor(mc, sq.Model, qf, 0)
	var spare []hilbert.Run
	iters := 0
	eval := func(t float64) ([]hilbert.Run, int, float64) {
		iters++
		return pl.statDescent(v, t)
	}
	// keep retains an eval's runs across later descents: the visitor
	// gets the spare buffer, the retained slice keeps its backing.
	keep := func(ivs []hilbert.Run) []hilbert.Run {
		v.runs, spare = spare[:0], ivs
		return ivs
	}
	done := func(t float64, ivs []hilbert.Run, blocks int, mass float64) Plan {
		return Plan{Intervals: ivs, Blocks: blocks, Mass: mass,
			Threshold: t, FilterIters: iters, DescentNodes: v.nodes, Depth: pl.depth}
	}

	// Bracket t_max from above: descents at high thresholds prune hard
	// and are cheap, so we walk down geometrically until the block set
	// first reaches mass α, leaving exactly one "expensive" descent.
	// P_sup(t) is non-increasing in t and reaches 1 as t -> 0 (edge
	// blocks absorb all tail mass), so a feasible threshold exists.
	tHi := (1 - sq.Alpha) / 4
	massHi := 0.0
	tLo := tHi
	ivs, blocks, mass := eval(tLo)
	ivs = keep(ivs)
	for mass < sq.Alpha && tLo > tFloor {
		tHi, massHi = tLo, mass
		tLo /= bracketStep
		if tLo < tFloor {
			tLo = tFloor
		}
		ivs, blocks, mass = eval(tLo)
		ivs = keep(ivs)
	}
	if mass < sq.Alpha {
		// Even the floor threshold cannot reach α (pathological model);
		// return the floor plan — it is the best the partition offers.
		return done(tLo, ivs, blocks, mass)
	}
	if tHi <= tLo {
		// The initial threshold was already feasible: expand upward until
		// infeasible to bracket t_max (each step prunes harder, so these
		// descents get cheaper).
		for iters < maxThresholdIters {
			tNext := tLo * 16
			if tNext >= 1 {
				tHi, massHi = 1, 0
				break
			}
			ivsN, blocksN, massN := eval(tNext)
			if massN < sq.Alpha {
				tHi, massHi = tNext, massN
				break
			}
			tLo, ivs, blocks, mass = tNext, keep(ivsN), blocksN, massN
		}
	}
	// Newton-inspired refinement on [tLo feasible, tHi infeasible]: a
	// secant step on (log t, P_sup) aimed at α, guarded toward the
	// geometric mean so the bracket always shrinks by a useful factor.
	for iters < maxThresholdIters && tHi/tLo > thresholdTol {
		tMid := math.Sqrt(tLo * tHi)
		if massHi < sq.Alpha && mass > massHi {
			frac := (mass - sq.Alpha) / (mass - massHi)
			if tSec := math.Exp(math.Log(tLo) + frac*(math.Log(tHi)-math.Log(tLo))); tSec > tLo*1.1 && tSec < tHi/1.1 {
				tMid = tSec
			}
		}
		ivsMid, blocksMid, massMid := eval(tMid)
		if massMid >= sq.Alpha {
			tLo, ivs, blocks, mass = tMid, keep(ivsMid), blocksMid, massMid
		} else {
			tHi, massHi = tMid, massMid
		}
	}
	return done(tLo, ivs, blocks, mass)
}

// SearchStat executes a complete statistical query: filtering (PlanStat)
// then refinement, which scans the selected curve intervals and returns
// every fingerprint inside the region Vα. Unlike a range query there is
// no distance constraint: the region is the answer (Section II).
func (ix *Index) SearchStat(q []byte, sq StatQuery) ([]Match, Plan, error) {
	plan, err := ix.PlanStat(q, sq)
	if err != nil {
		return nil, Plan{}, err
	}
	return ix.refineStat(plan), plan, nil
}

func (ix *Index) refineStat(plan Plan) []Match {
	var out []Match
	// A DB visit cannot fail; the error path exists for cold sources.
	ix.db.VisitIntervals(plan.Depth, plan.Intervals, func(c *store.Chunk, lo, hi int) bool {
		for i := lo; i < hi; i++ {
			out = append(out, Match{Pos: c.Base() + i, ID: c.ID(i), TC: c.TC(i), X: c.X(i), Y: c.Y(i), Dist: -1})
		}
		return true
	})
	return out
}

// PlanStatExact computes the exactly minimal block set Bα^min by
// collecting every block with mass above a small floor, sorting by mass
// and keeping the smallest prefix reaching α. It needs a single descent
// but an unbounded sort; the paper argues (Section IV-A) that sorting all
// 2^p blocks is unaffordable in general, which is why the threshold
// search above is the production path. Kept as the reference for the
// selection-strategy ablation.
func (ix *Index) PlanStatExact(q []byte, sq StatQuery) (Plan, error) {
	if err := sq.validate(ix.db.Dims()); err != nil {
		return Plan{}, err
	}
	qf, err := queryPoint(q, ix.db.Dims())
	if err != nil {
		return Plan{}, err
	}
	side := ix.curve.SideLen()
	type wb struct {
		block uint64
		mass  float64
	}
	var all []wb
	const floor = 1e-12
	keep := func(lo, hi []uint32) bool {
		return blockMass(sq.Model, qf, lo, hi, side, floor) > floor
	}
	ix.curve.Descend(ix.depth, keep, func(b hilbert.Block) bool {
		all = append(all, wb{block: b.Index, mass: blockMass(sq.Model, qf, b.Lo, b.Hi, side, 0)})
		return true
	})
	sort.Slice(all, func(i, j int) bool { return all[i].mass > all[j].mass })
	total := 0.0
	nsel := 0
	for nsel < len(all) && total < sq.Alpha {
		total += all[nsel].mass
		nsel++
	}
	sel := all[:nsel]
	thr := 0.0
	if nsel > 0 {
		thr = sel[nsel-1].mass
	}
	// Re-sort the selected blocks into curve order for merging.
	sort.Slice(sel, func(i, j int) bool { return sel[i].block < sel[j].block })
	var runs []hilbert.Run
	for _, b := range sel {
		runs = hilbert.AppendBlock(runs, b.block)
	}
	return Plan{Intervals: runs, Blocks: nsel, Mass: total,
		Threshold: thr, FilterIters: 1, Depth: ix.depth}, nil
}
