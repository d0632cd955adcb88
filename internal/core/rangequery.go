package core

import (
	"fmt"
	"math"

	"s3cbcd/internal/store"
)

// PlanRange runs the geometric filtering step of a classical spherical
// ε-range query on the same index structure: keep every p-block whose
// hyper-rectangle intersects the sphere of radius eps around q. This is
// the baseline the statistical query is compared against in Section V-A.
func (ix *Index) PlanRange(q []byte, eps float64) (Plan, error) {
	if eps < 0 {
		return Plan{}, fmt.Errorf("core: negative range radius %v", eps)
	}
	qf, err := queryPoint(q, ix.db.Dims())
	if err != nil {
		return Plan{}, err
	}
	return ix.planRangeFloat(qf, eps), nil
}

func (pl *Planner) planRangeFloat(qf []float64, eps float64) Plan {
	v := newRangeVisitor(qf, eps)
	pl.curve.DescendSteps(pl.depth, v)
	return Plan{Intervals: v.runs, Blocks: v.blocks,
		FilterIters: 1, DescentNodes: v.nodes, Depth: pl.depth}
}

// SearchRange executes a complete ε-range query: geometric filtering,
// then refinement that scans the selected intervals and keeps the
// fingerprints within distance eps of q.
func (ix *Index) SearchRange(q []byte, eps float64) ([]Match, Plan, error) {
	plan, err := ix.PlanRange(q, eps)
	if err != nil {
		return nil, Plan{}, err
	}
	qf, err := queryPoint(q, ix.db.Dims())
	if err != nil {
		return nil, Plan{}, err
	}
	return ix.refineRange(qf, eps, plan), plan, nil
}

func (ix *Index) refineRange(qf []float64, eps float64, plan Plan) []Match {
	epsSq := eps * eps
	var out []Match
	// A DB visit cannot fail; the error path exists for cold sources.
	ix.db.VisitIntervals(plan.Depth, plan.Intervals, func(c *store.Chunk, lo, hi int) bool {
		for i := lo; i < hi; i++ {
			if d := distSqToFP(qf, c.FP(i)); d <= epsSq {
				out = append(out, Match{Pos: c.Base() + i, ID: c.ID(i), TC: c.TC(i), X: c.X(i), Y: c.Y(i), Dist: math.Sqrt(d)})
			}
		}
		return true
	})
	return out
}
