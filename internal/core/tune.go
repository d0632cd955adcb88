package core

import (
	"fmt"
	"time"
)

// DepthTiming is the response-time decomposition at one partition depth:
// T(p) = T_f(p) + T_r(p) of Section IV-A. Times are per-query averages.
type DepthTiming struct {
	Depth  int
	Filter time.Duration
	Refine time.Duration
	Total  time.Duration
	// Blocks and Scanned are per-query averages of selected blocks and
	// refined records.
	Blocks  float64
	Scanned float64
}

// SweepDepth measures the statistical-query response time of the index at
// each requested depth using the sample queries. The index's depth is
// restored afterwards.
func (ix *Index) SweepDepth(depths []int, samples [][]byte, sq StatQuery) ([]DepthTiming, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("core: SweepDepth needs sample queries")
	}
	if err := sq.validate(ix.db.Dims()); err != nil {
		return nil, err
	}
	saved := ix.depth
	defer func() { ix.depth = saved }()

	out := make([]DepthTiming, 0, len(depths))
	for _, p := range depths {
		if err := checkDepth(ix.curve, p); err != nil {
			return nil, err
		}
		ix.depth = p
		var dt DepthTiming
		dt.Depth = p
		for _, q := range samples {
			t0 := time.Now()
			plan, err := ix.PlanStat(q, sq)
			if err != nil {
				return nil, err
			}
			t1 := time.Now()
			matches := ix.refineStat(plan)
			t2 := time.Now()
			dt.Filter += t1.Sub(t0)
			dt.Refine += t2.Sub(t1)
			dt.Blocks += float64(plan.Blocks)
			dt.Scanned += float64(len(matches))
		}
		n := time.Duration(len(samples))
		dt.Filter /= n
		dt.Refine /= n
		dt.Total = dt.Filter + dt.Refine
		dt.Blocks /= float64(len(samples))
		dt.Scanned /= float64(len(samples))
		out = append(out, dt)
	}
	return out, nil
}

// TuneDepth reproduces the paper's "p_min ... learned at the start of the
// retrieval stage": it sweeps the given depths (or a default ladder
// around the current depth when depths is nil) and sets the index to the
// depth with the smallest average total response time, returning the
// sweep for inspection.
func (ix *Index) TuneDepth(depths []int, samples [][]byte, sq StatQuery) ([]DepthTiming, error) {
	if depths == nil {
		for p := ix.depth - 6; p <= ix.depth+6; p += 2 {
			if checkDepth(ix.curve, p) == nil {
				depths = append(depths, p)
			}
		}
	}
	sweep, err := ix.SweepDepth(depths, samples, sq)
	if err != nil {
		return nil, err
	}
	best := sweep[0]
	for _, dt := range sweep[1:] {
		if dt.Total < best.Total {
			best = dt
		}
	}
	ix.SetDepth(best.Depth)
	return sweep, nil
}
