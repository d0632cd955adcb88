package store

import (
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"s3cbcd/internal/hilbert"
)

// coldVisitFixture writes n random records on the paper's curve (D=20,
// K=8) as a codec-bearing file and returns its path, the source DB and
// plans synthetic query plans: each a sorted, disjoint set of short curve
// intervals around stored keys, a few records apiece, like the p-block
// runs of a statistical plan.
func coldVisitFixture(tb testing.TB, n, plans int) (string, *DB, []testPlan) {
	tb.Helper()
	curve := hilbert.MustNew(20, 8)
	r := rand.New(rand.NewSource(16))
	db := MustBuild(curve, randRecords(r, curve, n))
	path := filepath.Join(tb.TempDir(), "visit.s3db")
	if err := db.WriteFileOpts(path, WriteOptions{SectionBits: 8, Sketch: true, Codec: true}); err != nil {
		tb.Fatal(err)
	}
	const depth = 20
	out := make([]testPlan, plans)
	for p := range out {
		out[p].depth = depth
		for i := r.Intn(n / 48); i < n; i += 1 + r.Intn(n/24) {
			b := db.Key(i).Shr(uint(curve.IndexBits() - depth)).Uint64()
			runs := out[p].runs
			if k := len(runs); k > 0 && b <= runs[k-1].Hi {
				runs[k-1].Hi = b + 64
				continue
			}
			out[p].runs = append(runs, hilbert.Run{Lo: b, Hi: b + 64})
		}
	}
	return path, db, out
}

// TestColdVisitAllocs asserts the cost of a cold block instead of
// inferring it: a lean statistical visit whose blocks are all cached
// allocates nothing per block — no decode, no key copies — and a miss
// reads into a recycled buffer, so it allocates at most one object (the
// cache entry) and nothing per record, uncached or through a cache that
// evicts every block as the next lands. Under -race the recycled-miss
// guards skip: sync.Pool drops items there on purpose.
func TestColdVisitAllocs(t *testing.T) {
	path, _, plans := coldVisitFixture(t, 20000, 1)
	ivs := plans[0]
	visited := 0
	visit := func(_ *Chunk, lo, hi int) bool { visited += hi - lo; return true }

	cfs := NewCountingFS(OSFS)
	open := func(cache *BlockCache) *ColdFile {
		cf, err := OpenColdOptsFS(cfs, path, ColdOptions{Cache: cache, BlockRecords: 256, Codec: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cf.Close() })
		return cf
	}
	run := func(cf *ColdFile) func() {
		return func() {
			if err := cf.VisitIntervalsLean(ivs.depth, ivs.runs, visit); err != nil {
				t.Fatal(err)
			}
		}
	}

	warm := open(NewBlockCache(1 << 30))
	run(warm)() // fill the cache
	reads := cfs.ReadBytes()
	blocks := int(warm.cache.Stats().Blocks)
	if blocks < 16 || visited == 0 {
		t.Fatalf("fixture touches %d blocks and %d records: too few to tell per-block from per-visit cost", blocks, visited)
	}
	if allocs := testing.AllocsPerRun(20, run(warm)); allocs > 2 {
		t.Errorf("warm lean visit over %d cached blocks allocates %.0f times, want a per-visit constant of at most 2", blocks, allocs)
	}
	if cfs.ReadBytes() != reads {
		t.Errorf("warm visits read %d bytes from disk", cfs.ReadBytes()-reads)
	}

	if raceEnabled {
		return
	}
	for _, c := range []struct {
		name  string
		cache *BlockCache
	}{{"uncached", nil}, {"below-one-block cache", NewBlockCache(1)}} {
		if allocs := testing.AllocsPerRun(5, run(open(c.cache))); allocs > float64(blocks+2) {
			t.Errorf("%s lean visit over %d blocks allocates %.0f times, want at most one per block", c.name, blocks, allocs)
		}
	}
}

// TestChunkClassSlack: every buffer size maps to a class whose capacity
// holds it with at most 1/8 slack — the budget charges capacity — and a
// buffer of that capacity maps back to the same class, which is what
// lets a recycled buffer find its pool.
func TestChunkClassSlack(t *testing.T) {
	prev := -1
	for n := 0; n <= 1<<20; n++ {
		class, capacity := chunkClass(n)
		if class < prev || class >= len(chunkPools) {
			t.Fatalf("chunkClass(%d) = class %d after %d, of %d pools", n, class, prev, len(chunkPools))
		}
		if capacity < n || 8*(capacity-n) > n {
			t.Fatalf("chunkClass(%d) capacity %d: more than 1/8 slack", n, capacity)
		}
		if back, c2 := chunkClass(capacity); back != class || c2 != capacity {
			t.Fatalf("chunkClass(%d) = (%d, %d) but its capacity maps to (%d, %d)", n, class, capacity, back, c2)
		}
		prev = class
	}
	if class, _ := chunkClass(math.MaxInt); class != len(chunkPools)-1 {
		t.Fatalf("the largest int maps to class %d of %d pools", class, len(chunkPools))
	}
}

func benchmarkColdVisit(b *testing.B, cache *BlockCache, visit func(cf *ColdFile, db *DB, ivs testPlan) error) {
	path, db, plans := coldVisitFixture(b, 20000, 64)
	cf, err := OpenColdOptsFS(OSFS, path, ColdOptions{Cache: cache, Codec: true})
	if err != nil {
		b.Fatal(err)
	}
	defer cf.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := visit(cf, db, plans[i%len(plans)]); err != nil {
			b.Fatal(err)
		}
	}
}

var coldVisitSink int

// sumIDs is the benchmarks' visit: it reads each selected record's ID.
func sumIDs(c *Chunk, lo, hi int) bool {
	for i := lo; i < hi; i++ {
		coldVisitSink += int(c.ID(i))
	}
	return true
}

// BenchmarkColdVisitLean is one statistical refinement of an uncached
// codec-bearing cold file: every touched block is read, searched in
// place and its selected rows decoded.
func BenchmarkColdVisitLean(b *testing.B) {
	benchmarkColdVisit(b, nil, visitLean)
}

// BenchmarkColdVisitMiss is the same refinement through a cache whose
// budget is below one block: every touched block misses, lands, is
// evicted by the next and recycled — the path most cold_mixed block
// fetches take.
func BenchmarkColdVisitMiss(b *testing.B) {
	benchmarkColdVisit(b, NewBlockCache(1), visitLean)
}

func visitLean(cf *ColdFile, _ *DB, ivs testPlan) error {
	return cf.VisitIntervalsLean(ivs.depth, ivs.runs, sumIDs)
}

// BenchmarkColdVisitFiltered is one ε-range refinement of the same file
// through the quantized filter: code and lean blocks read, survivors
// verified by exact reads.
func BenchmarkColdVisitFiltered(b *testing.B) {
	qf := make([]float64, 20)
	benchmarkColdVisit(b, nil, func(cf *ColdFile, db *DB, ivs testPlan) error {
		for j, c := range db.FP(len(ivs.runs) % db.Len()) {
			qf[j] = float64(c)
		}
		return cf.VisitIntervalsFiltered(ivs.depth, ivs.runs, qf, 90*90, sumIDs)
	})
}
