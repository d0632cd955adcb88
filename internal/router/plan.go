package router

// Plan once per request (DESIGN §3.11). A statistical plan reads only
// the curve geometry, the depth, α, σ and the query, never a record, so
// the router computes it once and every group only refines it: before,
// each group planned the same query again, and so did every retry and
// hedge. The router learns the geometry from the X-S3-Curve header of
// successful search replies, and plans only once every group has
// reported the same one. Until then, or while backends disagree, it
// forwards requests unplanned as before, so the first requests and a
// mixed or misconfigured fleet still answer.

import (
	"strconv"
	"time"

	"s3cbcd/internal/core"
	"s3cbcd/internal/httpapi"
	"s3cbcd/internal/obs"
)

// learn records be's geometry from a successful reply's X-S3-Curve; a
// change re-derives the fleet's planner. The common case — the header
// the backend sent last time — costs one atomic load and a compare.
func (r *Router) learn(be *backend, curve string) {
	if curve == "" {
		return
	}
	if p := be.curve.Load(); p != nil && *p == curve {
		return
	}
	c := curve // only a change allocates
	be.curve.Store(&c)
	r.learnMu.Lock()
	defer r.learnMu.Unlock()
	r.planner.Store(r.fleetPlanner())
}

// fleetPlanner returns a planner at the geometry every group has
// reported, nil while a group has not reported, two backends disagree
// or the geometry does not parse. It keeps the current planner when the
// geometry is unchanged. The caller holds learnMu.
func (r *Router) fleetPlanner() *core.Planner {
	curve := ""
	for _, grp := range r.groups {
		reported := false
		for _, be := range grp {
			p := be.curve.Load()
			if p == nil {
				continue
			}
			if curve != "" && *p != curve {
				return nil
			}
			curve, reported = *p, true
		}
		if !reported {
			return nil
		}
	}
	g, ok := httpapi.ParseGeometry(curve)
	if !ok {
		return nil
	}
	if cur := r.planner.Load(); cur != nil && httpapi.GeometryOf(cur) == g {
		return cur
	}
	pl, err := g.Planner()
	if err != nil {
		return nil
	}
	return pl
}

// plan plans a statistical request for the fleet, returning the
// X-S3-Plan header value shared by every attempt and the plan member of
// the reply; both nil when the router does not know the fleet's
// geometry yet, or the body fails the backend's own checks (its 400
// then reaches the client unchanged), or the plan is over
// httpapi.MaxPlanIntervals. A traced request gets one plan span.
func (r *Router) plan(tr *obs.Trace, body []byte) (hdr []string, member []byte) {
	pl := r.planner.Load()
	if pl == nil {
		return nil, nil
	}
	t0 := time.Now()
	h, plan, ok := httpapi.PlanRequest(pl, body)
	if !ok {
		return nil, nil
	}
	if tr != nil {
		id := tr.SpanSince("plan", 0, t0)
		tr.Annotate(id, "blocks", strconv.Itoa(plan.Blocks))
		tr.Annotate(id, "descentNodes", strconv.Itoa(plan.DescentNodes))
		tr.AddDescentNodes(int64(plan.DescentNodes))
		tr.AddBlocks(int64(plan.Blocks))
	}
	return []string{h}, httpapi.AppendPlan(nil, plan)
}

// geometry is the fleet geometry the router plans at, for /stats; nil
// while unknown.
func (r *Router) geometry() any {
	if pl := r.planner.Load(); pl != nil {
		return httpapi.GeometryOf(pl).String()
	}
	return nil
}
