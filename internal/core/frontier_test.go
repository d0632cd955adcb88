package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"s3cbcd/internal/hilbert"
	"s3cbcd/internal/store"
)

// planDiff reports the first field in which two plans differ, demanding
// bit-identity for the float fields. DescentNodes is deliberately NOT
// compared: it is the one field the two planners are supposed to disagree
// on.
func planDiff(frontier, legacy Plan) string {
	if !reflect.DeepEqual(frontier.Intervals, legacy.Intervals) {
		return fmt.Sprintf("Intervals differ: %d vs %d merged", len(frontier.Intervals), len(legacy.Intervals))
	}
	if frontier.Blocks != legacy.Blocks {
		return fmt.Sprintf("Blocks %d vs %d", frontier.Blocks, legacy.Blocks)
	}
	if math.Float64bits(frontier.Mass) != math.Float64bits(legacy.Mass) {
		return fmt.Sprintf("Mass %x vs %x", math.Float64bits(frontier.Mass), math.Float64bits(legacy.Mass))
	}
	if math.Float64bits(frontier.Threshold) != math.Float64bits(legacy.Threshold) {
		return fmt.Sprintf("Threshold %v vs %v", frontier.Threshold, legacy.Threshold)
	}
	if frontier.FilterIters != legacy.FilterIters {
		return fmt.Sprintf("FilterIters %d vs %d", frontier.FilterIters, legacy.FilterIters)
	}
	if frontier.Depth != legacy.Depth {
		return fmt.Sprintf("Depth %d vs %d", frontier.Depth, legacy.Depth)
	}
	return ""
}

// randomModel draws one of the distortion model families with random
// parameters. All of them are smooth enough to exercise deep descents and
// spiky enough to exercise heavy pruning.
func randomModel(r *rand.Rand, dims int) Model {
	switch r.Intn(4) {
	case 0:
		return IsoNormal{D: dims, Sigma: 1 + r.Float64()*30}
	case 1:
		sig := make([]float64, dims)
		for j := range sig {
			sig[j] = 0.5 + r.Float64()*25
		}
		return DiagNormal{Sigmas: sig}
	case 2:
		return IsoLaplace{D: dims, Sigma: 1 + r.Float64()*20}
	default:
		return MixtureNormal{D: dims, W: 0.3 + r.Float64()*0.6,
			SigmaCore: 1 + r.Float64()*6, SigmaWide: 10 + r.Float64()*30}
	}
}

// TestFrontierPlanMatchesLegacy is the planner-equivalence property: for
// random queries, models, expectations and depths, the incremental
// frontier planner must return a Plan bit-identical to the legacy
// multi-descent search in every field but DescentNodes.
func TestFrontierPlanMatchesLegacy(t *testing.T) {
	dbs := map[int]*store.DB{
		2: testDB(t, 2, 3000, 101),
		3: testDB(t, 3, 4000, 102),
		5: testDB(t, 5, 3000, 103),
	}
	dimChoices := []int{2, 3, 5}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dims := dimChoices[r.Intn(len(dimChoices))]
		db := dbs[dims]
		ix, err := NewIndex(db, 0)
		if err != nil {
			t.Fatal(err)
		}
		maxDepth := 14
		if ib := ix.curve.IndexBits(); ib < maxDepth {
			maxDepth = ib
		}
		ix.SetDepth(3 + r.Intn(maxDepth-2))
		sq := StatQuery{Alpha: 0.3 + r.Float64()*0.69, Model: randomModel(r, dims)}
		q, _ := distortedQuery(r, db, 10)

		frontier, err := ix.PlanStat(q, sq)
		if err != nil {
			t.Fatal(err)
		}
		legacy, err := ix.PlanStatLegacy(q, sq)
		if err != nil {
			t.Fatal(err)
		}
		if d := planDiff(frontier, legacy); d != "" {
			t.Errorf("seed %d (dims=%d depth=%d alpha=%v model=%T): %s",
				seed, dims, ix.Depth(), sq.Alpha, sq.Model, d)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60}
	if testing.Short() {
		cfg.MaxCount = 15
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestFrontierStatePooledReuse replans many queries through ONE reused
// frontierState and massCache — the engine's per-worker pattern — and
// checks each plan, including DescentNodes, against a freshly allocated
// planner state. Any stale carry-over between queries would surface here.
func TestFrontierStatePooledReuse(t *testing.T) {
	db := testDB(t, 4, 5000, 7)
	ix, _ := NewIndex(db, 0)
	fs := newFrontierState(ix.curve)
	mc := newMassCache(ix.dims(), ix.curve.SideLen())
	r := rand.New(rand.NewSource(11))
	qf := make([]float64, ix.dims())
	for i := 0; i < 40; i++ {
		sq := StatQuery{Alpha: 0.4 + r.Float64()*0.55, Model: randomModel(r, 4)}
		q, _ := distortedQuery(r, db, 8)
		for j, b := range q {
			qf[j] = float64(b)
		}
		mc.reset()
		pooled := ix.planStatFrontier(qf, sq, mc, fs)
		fresh := ix.planStatFloat(qf, sq)
		if !reflect.DeepEqual(pooled, fresh) {
			t.Fatalf("query %d: pooled plan %+v != fresh plan %+v", i, pooled, fresh)
		}
	}
}

// TestFrontierVisitsFewerNodes pins the point of the rewrite: across a
// workload of realistic queries the frontier planner must traverse far
// fewer partition-tree nodes than the legacy multi-descent search.
func TestFrontierVisitsFewerNodes(t *testing.T) {
	db := testDB(t, 4, 8000, 21)
	ix, _ := NewIndex(db, 0)
	sq := StatQuery{Alpha: 0.8, Model: IsoNormal{D: 4, Sigma: 18}}
	r := rand.New(rand.NewSource(22))
	var frontierNodes, legacyNodes int
	for i := 0; i < 20; i++ {
		q, _ := distortedQuery(r, db, 18)
		pf, err := ix.PlanStat(q, sq)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := ix.PlanStatLegacy(q, sq)
		if err != nil {
			t.Fatal(err)
		}
		if pf.DescentNodes <= 0 || pl.DescentNodes <= 0 {
			t.Fatalf("query %d: non-positive node counts %d, %d", i, pf.DescentNodes, pl.DescentNodes)
		}
		frontierNodes += pf.DescentNodes
		legacyNodes += pl.DescentNodes
	}
	if frontierNodes*2 > legacyNodes {
		t.Fatalf("frontier visited %d nodes, legacy %d: expected at least 2x reduction",
			frontierNodes, legacyNodes)
	}
	t.Logf("descent nodes: frontier %d, legacy %d (%.1fx)",
		frontierNodes, legacyNodes, float64(legacyNodes)/float64(frontierNodes))
}

// TestPlanWorkCountsGolden pins the planner's work counts on the paper's
// curve (D=20, K=8) at α=0.8, σ=18 to the values recorded before the
// descent kernel was rewritten for speed (PR 14): a kernel change may
// make a node cheaper, not change which nodes are visited. Depths 26 and
// 41 cross into the second and third Hilbert level. Planning reads no
// records, so a one-record database serves.
func TestPlanWorkCountsGolden(t *testing.T) {
	golden := []struct{ depth, nodes, iters, blocks, intervals int }{
		{20, 260, 6, 12, 12},
		{13, 66, 7, 4, 3},
		{26, 434, 8, 31, 27},
		{41, 180842, 15, 4465, 2507},
		{20, 288, 6, 12, 12},
		{13, 62, 6, 7, 7},
		{26, 1696, 10, 90, 36},
		{41, 27242, 14, 950, 675},
		{20, 130, 8, 3, 3},
		{13, 42, 11, 2, 1},
		{26, 346, 6, 12, 9},
		{41, 10764, 12, 643, 318},
		{20, 470, 5, 20, 20},
		{13, 328, 7, 20, 13},
		{26, 582, 8, 22, 22},
		{41, 27428, 14, 1358, 668},
	}
	db := store.MustBuild(hilbert.MustNew(20, 8), []store.Record{{FP: make([]byte, 20)}})
	sq := StatQuery{Alpha: 0.8, Model: IsoNormal{D: 20, Sigma: 18}}
	r := rand.New(rand.NewSource(14))
	for i, g := range golden {
		ix, err := NewIndex(db, g.depth)
		if err != nil {
			t.Fatal(err)
		}
		q := make([]byte, 20)
		for j := range q {
			q[j] = byte(r.Intn(256))
		}
		p, err := ix.PlanStat(q, sq)
		if err != nil {
			t.Fatal(err)
		}
		if p.DescentNodes != g.nodes || p.FilterIters != g.iters || p.Blocks != g.blocks || len(p.Intervals) != g.intervals {
			t.Errorf("query %d depth %d: nodes/iters/blocks/intervals = %d/%d/%d/%d, golden %d/%d/%d/%d", i, g.depth,
				p.DescentNodes, p.FilterIters, p.Blocks, len(p.Intervals), g.nodes, g.iters, g.blocks, g.intervals)
		}
	}
}

// TestEngineDescentNodesCounter checks the engine's cumulative counter
// against the per-plan diagnostics.
func TestEngineDescentNodesCounter(t *testing.T) {
	db := testDB(t, 3, 2000, 31)
	ix, _ := NewIndex(db, 0)
	e := NewEngine(ix, 2)
	sq := StatQuery{Alpha: 0.9, Model: IsoNormal{D: 3, Sigma: 10}}
	r := rand.New(rand.NewSource(32))
	var want int64
	for i := 0; i < 8; i++ {
		q, _ := distortedQuery(r, db, 10)
		_, plan, err := e.SearchStat(context.Background(), q, sq)
		if err != nil {
			t.Fatal(err)
		}
		want += int64(plan.DescentNodes)
	}
	if got := e.DescentNodes(); got != want {
		t.Fatalf("engine counter %d, sum of plans %d", got, want)
	}
	if want == 0 {
		t.Fatal("descent node counter never advanced")
	}
}

// TestRangePlanGolden pins ε-range plans on the paper's curve (D=20,
// K=8) to the values recorded before leaves were merged as they are
// emitted (PR 16), when MergeIntervals ran over the collected p-blocks:
// descent nodes, blocks, interval count and an FNV-1a digest of the
// interval list (Start and End words, big-endian, in order).
func TestRangePlanGolden(t *testing.T) {
	golden := []struct {
		depth                    int
		eps                      float64
		nodes, blocks, intervals int
		digest                   uint64
	}{
		{20, 90.0675, 858, 229, 66, 0x817aae82c32fcb38},
		{13, 90.0675, 688, 201, 51, 0xf6f457c37a680195},
		{26, 90.0675, 76422, 19353, 5890, 0x504d10dc48a21e0f},
		{33, 90.0675, 338376, 90244, 27034, 0xd50786cc95f82f6b},
		{20, 40, 256, 20, 20, 0xdea1a5995c9a4985},
		{13, 140, 3206, 544, 328, 0xe57097ab61b7b785},
		{26, 60, 8802, 1618, 702, 0xad97dc21563888c1},
		{33, 120, 4303698, 1514999, 221170, 0x5150ecc7fada77d9},
	}
	db := store.MustBuild(hilbert.MustNew(20, 8), []store.Record{{FP: make([]byte, 20)}})
	r := rand.New(rand.NewSource(16))
	for i, g := range golden {
		ix, err := NewIndex(db, g.depth)
		if err != nil {
			t.Fatal(err)
		}
		q := make([]byte, 20)
		for j := range q {
			q[j] = byte(r.Intn(256))
		}
		p, err := ix.PlanRange(q, g.eps)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		hashPlanKeys(h, ix.curve, p)
		if p.DescentNodes != g.nodes || p.Blocks != g.blocks || len(p.Intervals) != g.intervals || h.Sum64() != g.digest {
			t.Errorf("query %d depth %d eps %v: nodes/blocks/intervals/digest = %d/%d/%d/%#x, golden %d/%d/%d/%#x", i, g.depth, g.eps,
				p.DescentNodes, p.Blocks, len(p.Intervals), h.Sum64(), g.nodes, g.blocks, g.intervals, g.digest)
		}
	}
}
