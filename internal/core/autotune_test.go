package core

// Regression tests for the online cost-model tuner. The synthetic
// workloads feed the tuner observed plan/refine splits directly — the
// tuner only ever sees those two durations, so driving them is exactly
// the production interface — and pin two contracts: a refine-dominated
// T(p) moves the depth in the cost-reducing direction (deeper) without
// oscillating past the damping bound, and a disabled tuner reproduces
// today's compiled-in constants bit for bit.

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"s3cbcd/internal/store"
)

// feedWindow pushes one full refit window of identical observations.
func feedWindow(tn *autoTuner, planDur, refineDur time.Duration) {
	for i := 0; i < tn.opt.Interval; i++ {
		tn.observe(planDur, refineDur)
	}
}

func TestAutoTunerRefineDominatedDeepens(t *testing.T) {
	seed := tuning{depth: 8, bracketStep: 2, thresholdTol: 1.1}
	tn := newAutoTuner(AutoTuneOptions{Enabled: true, Interval: 16, TuneDepth: true}, seed, 1, 20)

	// Ten refine-dominated windows: refinement costs 100× planning, so
	// the fitted T(p) says "shift work into the filtering step" — deeper
	// partition, tighter threshold search.
	prevDepth := seed.depth
	for w := 0; w < 10; w++ {
		feedWindow(tn, 1*time.Microsecond, 100*time.Microsecond)
		cur := tn.current()
		if cur.depth < prevDepth {
			t.Fatalf("window %d: depth decreased %d -> %d under a refine-dominated workload",
				w, prevDepth, cur.depth)
		}
		prevDepth = cur.depth
	}
	st := tn.statsSnapshot()
	if st.Depth <= seed.depth {
		t.Errorf("refine-dominated workload left depth at %d, want > %d", st.Depth, seed.depth)
	}
	if st.ThresholdTol >= seed.thresholdTol {
		t.Errorf("refine-dominated workload left thresholdTol at %v, want < %v",
			st.ThresholdTol, seed.thresholdTol)
	}
	if st.BracketStep >= seed.bracketStep {
		t.Errorf("refine-dominated workload left bracketStep at %v, want < %v",
			st.BracketStep, seed.bracketStep)
	}
	if st.ThresholdTol < minThresholdTol || st.BracketStep < minBracketStep {
		t.Errorf("tuner escaped its schedule bounds: tol=%v step=%v", st.ThresholdTol, st.BracketStep)
	}
	if tn.flips != 0 {
		t.Errorf("monotone workload produced %d depth reversals, want 0", tn.flips)
	}
}

func TestAutoTunerDampingBlocksOscillation(t *testing.T) {
	seed := tuning{depth: 8, bracketStep: 2, thresholdTol: 1.1}
	tn := newAutoTuner(AutoTuneOptions{Enabled: true, Interval: 16, TuneDepth: true}, seed, 1, 20)

	// Alternate dominance every window while the TOTAL cost stays flat:
	// neither depth is actually cheaper, so after the first exploratory
	// move the damping bound must pin the depth — the observed cost at
	// the reversal target never beats damping × the current cost.
	depths := []int{seed.depth}
	for w := 0; w < 12; w++ {
		if w%2 == 0 {
			feedWindow(tn, 1*time.Microsecond, 100*time.Microsecond)
		} else {
			feedWindow(tn, 100*time.Microsecond, 1*time.Microsecond)
		}
		depths = append(depths, tn.current().depth)
	}
	// Count direction changes of the depth trajectory.
	reversals := 0
	lastDir := 0
	for i := 1; i < len(depths); i++ {
		d := depths[i] - depths[i-1]
		if d == 0 {
			continue
		}
		dir := 1
		if d < 0 {
			dir = -1
		}
		if lastDir != 0 && dir == -lastDir {
			reversals++
		}
		lastDir = dir
	}
	if reversals > 1 {
		t.Errorf("flat-cost alternating workload oscillated %d times (depths %v), damping allows at most 1",
			reversals, depths)
	}
	if tn.flips > 1 {
		t.Errorf("tuner counted %d flips, damping allows at most 1", tn.flips)
	}
}

// TestAutoTuneDisabledReproducesDefaults pins the off-switch: with no
// tuner attached, every plan path resolves exactly today's compiled-in
// constants, and the plans are bit-identical to the legacy reference.
func TestAutoTuneDisabledReproducesDefaults(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	recs := make([]store.Record, 600)
	for i := range recs {
		recs[i] = randLiveRecord(r)
	}
	db, err := store.Build(liveTestCurve(), recs)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := NewIndex(db, liveTestDepth)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		tn   tuning
	}{
		{"engine", NewEngine(ix, 1).tuning()},
		{"engine+cache", NewEngineOpts(ix, EngineOptions{PlanCache: true}).tuning()},
		{"planner", ix.defaultTuning()},
	}
	li, err := OpenLiveIndex(liveTestCurve(), "", LiveOptions{Depth: liveTestDepth})
	if err != nil {
		t.Fatal(err)
	}
	defer li.Close()
	cases = append(cases, struct {
		name string
		tn   tuning
	}{"live", li.tuning()})

	want := tuning{depth: liveTestDepth, bracketStep: bracketStep, thresholdTol: thresholdTol}
	for _, tc := range cases {
		if tc.tn != want {
			t.Errorf("%s: disabled tuning = %+v, want the compiled-in constants %+v", tc.name, tc.tn, want)
		}
	}

	// And the planned output at the default tuning is bit-identical to
	// the legacy multi-descent reference across a spread of queries.
	for _, alpha := range []float64{0.5, 0.8, 0.95} {
		sq := StatQuery{Alpha: alpha, Model: IsoNormal{D: liveTestDims, Sigma: 2.5}}
		for qi := 0; qi < 8; qi++ {
			q := randLiveRecord(r).FP
			got, err := ix.PlanStat(q, sq)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ix.PlanStatLegacy(q, sq)
			if err != nil {
				t.Fatal(err)
			}
			got.DescentNodes, want.DescentNodes = 0, 0 // incremental vs multi-descent cost differs by design
			if !reflect.DeepEqual(got, want) {
				t.Errorf("alpha %v query %d: tuned-default plan differs from legacy:\n got %+v\nwant %+v",
					alpha, qi, got, want)
			}
		}
	}
}
