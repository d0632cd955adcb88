package core

import (
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"

	"s3cbcd/internal/hilbert"
	"s3cbcd/internal/stat"
	"s3cbcd/internal/store"
)

// testDB builds a database of n random fingerprints in [0,256)^dims.
func testDB(t *testing.T, dims, n int, seed int64) *store.DB {
	t.Helper()
	curve := hilbert.MustNew(dims, 8)
	r := rand.New(rand.NewSource(seed))
	recs := make([]store.Record, n)
	for i := range recs {
		fp := make([]byte, dims)
		for j := range fp {
			fp[j] = byte(r.Intn(256))
		}
		recs[i] = store.Record{FP: fp, ID: uint32(i % 64), TC: uint32(i)}
	}
	return store.MustBuild(curve, recs)
}

// distortedQuery picks a random record and adds N(0,sigma) per component,
// clamped and quantized, returning the query and the record index.
func distortedQuery(r *rand.Rand, db *store.DB, sigma float64) ([]byte, int) {
	i := r.Intn(db.Len())
	fp := db.FP(i)
	q := make([]byte, len(fp))
	for j, b := range fp {
		v := float64(b) + r.NormFloat64()*sigma
		if v < 0 {
			v = 0
		}
		if v > 255 {
			v = 255
		}
		q[j] = byte(math.Round(v))
	}
	return q, i
}

func TestStatQueryRetrievalRateMatchesAlpha(t *testing.T) {
	db := testDB(t, 8, 3000, 1)
	ix, err := NewIndex(db, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(2))
	const sigma = 12.0
	for _, alpha := range []float64{0.5, 0.8, 0.95} {
		sq := StatQuery{Alpha: alpha, Model: IsoNormal{D: 8, Sigma: sigma}}
		hits, trials := 0, 250
		for k := 0; k < trials; k++ {
			q, want := distortedQuery(r, db, sigma)
			matches, plan, err := ix.SearchStat(q, sq)
			if err != nil {
				t.Fatal(err)
			}
			if plan.Mass < alpha-1e-9 {
				t.Fatalf("alpha=%v: plan mass %v below alpha", alpha, plan.Mass)
			}
			for _, m := range matches {
				if m.Pos == want {
					hits++
					break
				}
			}
		}
		rate := float64(hits) / float64(trials)
		// Clamping at the byte range boundaries and quantization make the
		// true distortion differ slightly from the model; allow 8 points.
		if rate < alpha-0.08 {
			t.Errorf("alpha=%v: retrieval rate %v", alpha, rate)
		}
	}
}

func TestRangeQueryMatchesBruteForce(t *testing.T) {
	db := testDB(t, 6, 1500, 3)
	ix, err := NewIndex(db, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 40; trial++ {
		q, _ := distortedQuery(r, db, 15)
		eps := 20 + r.Float64()*80
		matches, _, err := ix.SearchRange(q, eps)
		if err != nil {
			t.Fatal(err)
		}
		got := map[int]bool{}
		for _, m := range matches {
			got[m.Pos] = true
			if math.Abs(m.Dist-distTo(q, db.FP(m.Pos))) > 1e-9 {
				t.Fatalf("match distance wrong")
			}
		}
		for i := 0; i < db.Len(); i++ {
			want := distTo(q, db.FP(i)) <= eps
			if want != got[i] {
				t.Fatalf("trial %d eps=%v record %d: brute=%v index=%v", trial, eps, i, want, got[i])
			}
		}
	}
}

func distTo(q, fp []byte) float64 {
	s := 0.0
	for i := range q {
		d := float64(q[i]) - float64(fp[i])
		s += d * d
	}
	return math.Sqrt(s)
}

func TestStatPlanIntervalsSortedDisjoint(t *testing.T) {
	db := testDB(t, 8, 500, 5)
	ix, _ := NewIndex(db, 0)
	r := rand.New(rand.NewSource(6))
	sq := StatQuery{Alpha: 0.9, Model: IsoNormal{D: 8, Sigma: 15}}
	for trial := 0; trial < 20; trial++ {
		q, _ := distortedQuery(r, db, 15)
		plan, err := ix.PlanStat(q, sq)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Blocks == 0 || len(plan.Intervals) == 0 {
			t.Fatal("empty plan")
		}
		for i, iv := range plan.Intervals {
			if iv.Lo >= iv.Hi {
				t.Fatalf("interval %d empty or inverted", i)
			}
			if i > 0 && plan.Intervals[i-1].Hi >= iv.Lo {
				t.Fatalf("intervals %d,%d overlap or touch (should be merged)", i-1, i)
			}
		}
		if plan.FilterIters < 1 || plan.FilterIters > maxThresholdIters {
			t.Fatalf("FilterIters = %d", plan.FilterIters)
		}
		if plan.Threshold <= 0 {
			t.Fatalf("Threshold = %v", plan.Threshold)
		}
	}
}

func TestPlanStatExactIsMinimal(t *testing.T) {
	db := testDB(t, 6, 400, 7)
	ix, _ := NewIndex(db, 12)
	r := rand.New(rand.NewSource(8))
	sq := StatQuery{Alpha: 0.85, Model: IsoNormal{D: 6, Sigma: 10}}
	for trial := 0; trial < 15; trial++ {
		q, _ := distortedQuery(r, db, 10)
		exact, err := ix.PlanStatExact(q, sq)
		if err != nil {
			t.Fatal(err)
		}
		approx, err := ix.PlanStat(q, sq)
		if err != nil {
			t.Fatal(err)
		}
		if exact.Mass < sq.Alpha {
			t.Fatalf("exact mass %v below alpha", exact.Mass)
		}
		// The threshold search may select slightly more blocks than the
		// exact minimum, never fewer.
		if approx.Blocks < exact.Blocks {
			t.Fatalf("approx selected %d blocks, exact minimum is %d", approx.Blocks, exact.Blocks)
		}
		if float64(approx.Blocks) > 3*float64(exact.Blocks)+8 {
			t.Fatalf("approx wildly larger than exact: %d vs %d", approx.Blocks, exact.Blocks)
		}
	}
}

func TestStatQueryMassGrowsWithAlpha(t *testing.T) {
	db := testDB(t, 8, 300, 9)
	ix, _ := NewIndex(db, 0)
	q, _ := distortedQuery(rand.New(rand.NewSource(10)), db, 12)
	prevBlocks := 0
	for _, alpha := range []float64{0.3, 0.6, 0.9, 0.99} {
		plan, err := ix.PlanStat(q, StatQuery{Alpha: alpha, Model: IsoNormal{D: 8, Sigma: 12}})
		if err != nil {
			t.Fatal(err)
		}
		if plan.Blocks < prevBlocks {
			t.Fatalf("alpha=%v: blocks shrank from %d to %d", alpha, prevBlocks, plan.Blocks)
		}
		prevBlocks = plan.Blocks
	}
}

func TestPseudoDiskMatchesInMemory(t *testing.T) {
	db := testDB(t, 8, 2000, 11)
	path := filepath.Join(t.TempDir(), "db.s3db")
	if err := db.WriteFile(path, 10); err != nil {
		t.Fatal(err)
	}
	fl, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()

	ix, _ := NewIndex(db, 0)
	di, err := NewDiskIndex(fl, ix.Depth())
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(12))
	sq := StatQuery{Alpha: 0.8, Model: IsoNormal{D: 8, Sigma: 10}}
	queries := make([][]byte, 30)
	for i := range queries {
		queries[i], _ = distortedQuery(r, db, 10)
	}
	for _, budget := range []int{50, 400, 5000} {
		results, stats, err := di.SearchStatBatch(queries, sq, budget)
		if err != nil {
			t.Fatal(err)
		}
		if stats.MaxResident > budget && stats.SectionBits < fl.SectionBits() {
			t.Fatalf("budget %d: resident %d with spare granularity", budget, stats.MaxResident)
		}
		for qi, q := range queries {
			want, _, err := ix.SearchStat(q, sq)
			if err != nil {
				t.Fatal(err)
			}
			if !sameMatches(want, results[qi]) {
				t.Fatalf("budget %d query %d: disk results differ from memory (%d vs %d)",
					budget, qi, len(results[qi]), len(want))
			}
		}
	}
}

func sameMatches(a, b []Match) bool {
	if len(a) != len(b) {
		return false
	}
	ap := make([]int, len(a))
	bp := make([]int, len(b))
	for i := range a {
		ap[i], bp[i] = a[i].Pos, b[i].Pos
	}
	sort.Ints(ap)
	sort.Ints(bp)
	for i := range ap {
		if ap[i] != bp[i] {
			return false
		}
	}
	return true
}

func TestChooseSectionBits(t *testing.T) {
	db := testDB(t, 6, 1000, 13)
	path := filepath.Join(t.TempDir(), "db.s3db")
	if err := db.WriteFile(path, 8); err != nil {
		t.Fatal(err)
	}
	fl, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	di, _ := NewDiskIndex(fl, 0)
	if bits := di.ChooseSectionBits(1000); bits != 0 {
		t.Fatalf("everything fits: bits = %d", bits)
	}
	if bits := di.ChooseSectionBits(1); bits != 8 {
		t.Fatalf("impossible budget should cap at table granularity: %d", bits)
	}
	bits := di.ChooseSectionBits(100)
	maxSec := 0
	for s := 0; s < 1<<uint(bits); s++ {
		lo, hi := fl.SectionRecordRange(bits, s)
		if hi-lo > maxSec {
			maxSec = hi - lo
		}
	}
	if maxSec > 100 {
		t.Fatalf("chosen bits %d still has section of %d records", bits, maxSec)
	}
}

func TestSweepAndTuneDepth(t *testing.T) {
	db := testDB(t, 8, 4000, 14)
	ix, _ := NewIndex(db, 0)
	r := rand.New(rand.NewSource(15))
	samples := make([][]byte, 8)
	for i := range samples {
		samples[i], _ = distortedQuery(r, db, 10)
	}
	sq := StatQuery{Alpha: 0.8, Model: IsoNormal{D: 8, Sigma: 10}}
	sweep, err := ix.SweepDepth([]int{6, 10, 14}, samples, sq)
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep) != 3 {
		t.Fatalf("sweep len %d", len(sweep))
	}
	for _, dt := range sweep {
		if dt.Total != dt.Filter+dt.Refine {
			t.Fatalf("timing decomposition broken at p=%d", dt.Depth)
		}
		if dt.Blocks <= 0 || dt.Scanned < 0 {
			t.Fatalf("bad counters at p=%d: %+v", dt.Depth, dt)
		}
	}
	// Deeper partitions are more selective: scanned records decrease.
	if sweep[2].Scanned > sweep[0].Scanned {
		t.Fatalf("deeper partition scanned more: %v vs %v", sweep[2].Scanned, sweep[0].Scanned)
	}
	tuned, err := ix.TuneDepth([]int{6, 10, 14}, samples, sq)
	if err != nil {
		t.Fatal(err)
	}
	best := tuned[0]
	for _, dt := range tuned[1:] {
		if dt.Total < best.Total {
			best = dt
		}
	}
	if ix.Depth() != best.Depth {
		t.Fatalf("TuneDepth set %d, best was %d", ix.Depth(), best.Depth)
	}
}

func TestValidationErrors(t *testing.T) {
	db := testDB(t, 6, 50, 16)
	ix, _ := NewIndex(db, 0)
	q := make([]byte, 6)
	if _, err := ix.PlanStat(q, StatQuery{Alpha: 0, Model: IsoNormal{D: 6, Sigma: 5}}); err == nil {
		t.Error("alpha=0 accepted")
	}
	if _, err := ix.PlanStat(q, StatQuery{Alpha: 1.2, Model: IsoNormal{D: 6, Sigma: 5}}); err == nil {
		t.Error("alpha>1 accepted")
	}
	if _, err := ix.PlanStat(q, StatQuery{Alpha: 0.5, Model: nil}); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := ix.PlanStat(q, StatQuery{Alpha: 0.5, Model: IsoNormal{D: 4, Sigma: 5}}); err == nil {
		t.Error("dim mismatch accepted")
	}
	if _, err := ix.PlanStat(make([]byte, 3), StatQuery{Alpha: 0.5, Model: IsoNormal{D: 6, Sigma: 5}}); err == nil {
		t.Error("short query accepted")
	}
	if _, err := ix.PlanRange(q, -1); err == nil {
		t.Error("negative eps accepted")
	}
	if _, err := NewIndex(db, 1000); err == nil {
		t.Error("oversized depth accepted")
	}
	if _, err := ix.SweepDepth([]int{2}, nil, StatQuery{Alpha: 0.5, Model: IsoNormal{D: 6, Sigma: 5}}); err == nil {
		t.Error("empty samples accepted")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("SetDepth(0) should panic")
			}
		}()
		ix.SetDepth(0)
	}()
}

func TestDiagNormalModel(t *testing.T) {
	m := DiagNormal{Sigmas: []float64{5, 10}}
	if m.Dims() != 2 {
		t.Fatal("dims")
	}
	a := m.ComponentMass(0, -5, 5)
	b := m.ComponentMass(1, -10, 10)
	if math.Abs(a-b) > 1e-12 {
		t.Fatalf("scaled masses differ: %v %v", a, b)
	}
	iso := IsoNormal{D: 20, Sigma: 20}
	rd := iso.Radius()
	if rd.D != 20 || rd.Sigma != 20 {
		t.Fatal("Radius passthrough")
	}
	if got := iso.ComponentMass(3, math.Inf(-1), math.Inf(1)); got != 1 {
		t.Fatalf("full mass %v", got)
	}
}

func TestBlockMassEdgeExtension(t *testing.T) {
	m := IsoNormal{D: 2, Sigma: 50}
	// Query at the corner: the corner block must absorb the tail mass, so
	// the four quadrant blocks at depth 2 of a 2-D grid sum to 1.
	q := []float64{0, 0}
	lo1 := []uint32{0, 0}
	mid := []uint32{128, 128}
	hi1 := []uint32{256, 256}
	total := blockMass(m, q, lo1, mid, 256, 0) +
		blockMass(m, q, []uint32{128, 0}, []uint32{256, 128}, 256, 0) +
		blockMass(m, q, []uint32{0, 128}, []uint32{128, 256}, 256, 0) +
		blockMass(m, q, mid, hi1, 256, 0)
	if math.Abs(total-1) > 1e-12 {
		t.Fatalf("quadrant masses sum to %v", total)
	}
	// Early-exit floor: must return a value <= floor when pruned.
	if v := blockMass(m, []float64{128, 128}, []uint32{0, 0}, []uint32{1, 1}, 256, 0.5); v > 0.5 {
		t.Fatalf("floored mass %v", v)
	}
}

func TestStatRetrievalBeatsMatchedRangeQueryTime(t *testing.T) {
	// Qualitative Section V-A check at test scale: for matched
	// expectation, the statistical plan touches far fewer blocks than the
	// geometric plan.
	db := testDB(t, 12, 2000, 17)
	ix, _ := NewIndex(db, 0)
	r := rand.New(rand.NewSource(18))
	const sigma = 12.0
	model := IsoNormal{D: 12, Sigma: sigma}
	eps := model.Radius().Quantile(0.8)
	var statBlocks, rangeBlocks float64
	for trial := 0; trial < 10; trial++ {
		q, _ := distortedQuery(r, db, sigma)
		sp, err := ix.PlanStat(q, StatQuery{Alpha: 0.8, Model: model})
		if err != nil {
			t.Fatal(err)
		}
		rp, err := ix.PlanRange(q, eps)
		if err != nil {
			t.Fatal(err)
		}
		statBlocks += float64(sp.Blocks)
		rangeBlocks += float64(rp.Blocks)
	}
	if statBlocks >= rangeBlocks {
		t.Fatalf("statistical query selected %v blocks, range query %v — expected fewer", statBlocks, rangeBlocks)
	}
}

func TestDefaultDepth(t *testing.T) {
	c := hilbert.MustNew(20, 8)
	if DefaultDepth(c, 0) != 1 || DefaultDepth(c, 1) != 1 {
		t.Fatal("tiny n")
	}
	if d := DefaultDepth(c, 1<<20); d < 20 || d > 22 {
		t.Fatalf("DefaultDepth(1M) = %d", d)
	}
	small := hilbert.MustNew(2, 2)
	if d := DefaultDepth(small, 1<<30); d != 4 {
		t.Fatalf("cap at index bits: %d", d)
	}
}

func TestRadiusQuantileConsistencyWithStatPkg(t *testing.T) {
	m := IsoNormal{D: 20, Sigma: 20}
	want := stat.RadiusDist{D: 20, Sigma: 20}.Quantile(0.8)
	if got := m.Radius().Quantile(0.8); got != want {
		t.Fatalf("quantile mismatch %v %v", got, want)
	}
}
