package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestQuickStatPlanInvariants property-tests the threshold search: for
// arbitrary queries, sigmas and alphas, the plan must carry mass >= alpha,
// have positive block count, and sorted disjoint intervals.
func TestQuickStatPlanInvariants(t *testing.T) {
	db := testDB(t, 6, 400, 99)
	ix, err := NewIndex(db, 0)
	if err != nil {
		t.Fatal(err)
	}
	f := func(raw [6]byte, sRaw, aRaw uint8) bool {
		sigma := 2 + float64(sRaw%40)
		alpha := 0.05 + 0.9*float64(aRaw)/255
		q := make([]byte, 6)
		copy(q, raw[:])
		plan, err := ix.PlanStat(q, StatQuery{Alpha: alpha, Model: IsoNormal{D: 6, Sigma: sigma}})
		if err != nil {
			return false
		}
		if plan.Mass < alpha-1e-9 || plan.Blocks < 1 {
			return false
		}
		for i, iv := range plan.Intervals {
			if iv.Lo >= iv.Hi {
				return false
			}
			if i > 0 && plan.Intervals[i-1].Hi >= iv.Lo {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRangeContainsStat verifies a containment property: every
// record a range query returns at radius eps is also within eps by brute
// distance (soundness), and a radius-0 self-query returns the record.
func TestQuickRangeSoundness(t *testing.T) {
	db := testDB(t, 6, 300, 98)
	ix, _ := NewIndex(db, 0)
	r := rand.New(rand.NewSource(97))
	f := func(epsRaw uint8) bool {
		eps := float64(epsRaw) / 2
		q, _ := distortedQuery(r, db, 10)
		matches, _, err := ix.SearchRange(q, eps)
		if err != nil {
			return false
		}
		for _, m := range matches {
			if m.Dist > eps+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
	// Self query.
	self := append([]byte(nil), db.FP(7)...)
	matches, _, err := ix.SearchRange(self, 0)
	if err != nil || len(matches) == 0 {
		t.Fatalf("self range query: %v %d", err, len(matches))
	}
}
