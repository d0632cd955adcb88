package store

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"s3cbcd/internal/bitkey"
	"s3cbcd/internal/hilbert"
)

// flatRecord is one record with the fingerprint copied out of the
// visit callback, comparable across sources.
type flatRecord struct {
	pos    int
	key    bitkey.Key
	fp     string
	id, tc uint32
	x, y   uint16
}

// flatAt copies chunk-local record i of c out of the chunk.
func flatAt(c *Chunk, i int) flatRecord {
	return flatRecord{pos: c.Base() + i, key: c.Key(i), fp: string(c.FP(i)),
		id: c.ID(i), tc: c.TC(i), x: c.X(i), y: c.Y(i)}
}

func collectVisits(t *testing.T, src RecordSource, p testPlan) []flatRecord {
	t.Helper()
	var out []flatRecord
	if err := src.VisitIntervals(p.depth, p.runs, func(c *Chunk, lo, hi int) bool {
		for i := lo; i < hi; i++ {
			out = append(out, flatAt(c, i))
		}
		return true
	}); err != nil {
		t.Fatalf("VisitIntervals: %v", err)
	}
	return out
}

// testPlan is a sorted, merged run list at its depth: what a visit takes.
type testPlan struct {
	depth int
	runs  []hilbert.Run
}

// randIntervals builds up to n random runs at a random depth of the
// given curve (whose index must fit a uint64), sorted and merged.
func randIntervals(r *rand.Rand, curve *hilbert.Curve, n int) testPlan {
	p := testPlan{depth: 1 + r.Intn(curve.IndexBits())}
	p.runs = RandRuns(r, p.depth, n)
	return p
}

// holds reports whether key k of curve lies in one of the plan's runs.
func (p testPlan) holds(curve *hilbert.Curve, k bitkey.Key) bool {
	b := k.Shr(uint(curve.IndexBits() - p.depth)).Uint64()
	for _, r := range p.runs {
		if b >= r.Lo && b < r.Hi {
			return true
		}
	}
	return false
}

// fullPlan is the one run covering the whole curve.
var fullPlan = testPlan{depth: 1, runs: []hilbert.Run{{Lo: 0, Hi: 2}}}

// coldTestFile writes a random database file — with a legacy shard
// manifest spliced in when shards > 1 — and returns its path plus the
// in-memory DB it was written from.
func coldTestFile(t *testing.T, seed int64, n, sectionBits, shards int) (string, *DB) {
	t.Helper()
	curve := hilbert.MustNew(6, 4)
	db := MustBuild(curve, randRecords(rand.New(rand.NewSource(seed)), curve, n))
	path := filepath.Join(t.TempDir(), "cold.s3db")
	if err := db.WriteFile(path, sectionBits); err != nil {
		t.Fatal(err)
	}
	if shards > 1 {
		starts := make([]uint64, shards+1)
		for i := range starts {
			starts[i] = uint64(n * i / shards)
		}
		AddShardManifest(t, path, starts...)
	}
	return path, db
}

// TestColdFileMatchesDB: for every cache configuration — none, starved,
// roomy — and several block granularities, random interval sets visited
// through the cold file must produce exactly the records the in-memory
// DB produces, in the same order.
func TestColdFileMatchesDB(t *testing.T) {
	path, db := coldTestFile(t, 7, 300, 6, 4)
	r := rand.New(rand.NewSource(8))
	configs := []struct {
		name         string
		budget       int64 // -1: no cache at all
		blockRecords int
	}{
		{"nocache", -1, 0},
		{"starved", 1, 16},
		{"tiny", 2048, 16},
		{"roomy", 1 << 20, 64},
		{"whole-file-blocks", 1 << 20, 1 << 20},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			var cache *BlockCache
			if cfg.budget >= 0 {
				cache = NewBlockCache(cfg.budget)
			}
			cf, err := OpenColdFS(OSFS, path, cache, cfg.blockRecords)
			if err != nil {
				t.Fatal(err)
			}
			defer cf.Close()
			if cf.Len() != db.Len() {
				t.Fatalf("cold Len=%d, db Len=%d", cf.Len(), db.Len())
			}
			for trial := 0; trial < 30; trial++ {
				ivs := randIntervals(r, db.Curve(), 1+r.Intn(6))
				want := collectVisits(t, db, ivs)
				got := collectVisits(t, cf, ivs)
				if len(got) != len(want) {
					t.Fatalf("trial %d: cold visited %d records, db %d", trial, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("trial %d record %d: cold %+v, db %+v", trial, i, got[i], want[i])
					}
				}
			}
			if cache != nil {
				if st := cache.Stats(); st.Bytes > cfg.budget {
					t.Fatalf("cache holds %d bytes over budget %d", st.Bytes, cfg.budget)
				}
			}
		})
	}
}

// TestColdFileEarlyStop: a visit callback returning false must stop the
// walk without error, and without visiting further records.
func TestColdFileEarlyStop(t *testing.T) {
	path, _ := coldTestFile(t, 9, 200, 6, 1)
	cf, err := OpenColdFS(OSFS, path, NewBlockCache(1<<20), 32)
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	for _, stop := range []int{0, 1, 7, 150} {
		seen := 0
		if err := cf.VisitIntervals(fullPlan.depth, fullPlan.runs, PerRecord(func(*Chunk, int) bool {
			seen++
			return seen <= stop
		})); err != nil {
			t.Fatal(err)
		}
		if seen != stop+1 {
			t.Fatalf("stop after %d: visited %d", stop, seen)
		}
	}
}

// TestColdFileCountID: per-identifier counts through the uncached scan
// path must agree with the in-memory DB.
func TestColdFileCountID(t *testing.T) {
	path, db := coldTestFile(t, 11, 250, 6, 3)
	cf, err := OpenColdFS(OSFS, path, nil, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	for id := uint32(0); id < 55; id++ {
		n, err := cf.CountID(id)
		if err != nil {
			t.Fatal(err)
		}
		if want := db.CountID(id); n != want {
			t.Fatalf("CountID(%d) = %d, want %d", id, n, want)
		}
	}
}

// TestColdFileLoadAll round-trips the whole file back into memory.
func TestColdFileLoadAll(t *testing.T) {
	path, db := coldTestFile(t, 13, 120, 6, 2)
	cache := NewBlockCache(1 << 20)
	cf, err := OpenColdFS(OSFS, path, cache, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	got, err := cf.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != db.Len() {
		t.Fatalf("LoadAll: %d records, want %d", got.Len(), db.Len())
	}
	for i := 0; i < db.Len(); i++ {
		if got.Key(i).Cmp(db.Key(i)) != 0 || got.ID(i) != db.ID(i) || got.TC(i) != db.TC(i) ||
			string(got.FP(i)) != string(db.FP(i)) {
			t.Fatalf("LoadAll record %d differs", i)
		}
	}
	// Bulk load must bypass the cache entirely.
	if st := cache.Stats(); st.Misses != 0 || st.Blocks != 0 {
		t.Fatalf("LoadAll touched the cache: %+v", st)
	}
}

// TestColdFileCacheHitZeroReads: once a block is cached, a repeat visit
// must not touch the filesystem at all — asserted by byte, via
// CountingFS, not just by hit counters.
func TestColdFileCacheHitZeroReads(t *testing.T) {
	path, db := coldTestFile(t, 17, 300, 6, 4)
	cfs := NewCountingFS(OSFS)
	cache := NewBlockCache(1 << 20) // roomy: nothing evicts
	cf, err := OpenColdFS(cfs, path, cache, 32)
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	r := rand.New(rand.NewSource(18))
	ivs := randIntervals(r, db.Curve(), 4)
	warm := collectVisits(t, cf, ivs)
	cold := cfs.ReadBytes()
	if cold == 0 && len(warm) > 0 {
		t.Fatal("first visit read zero bytes")
	}
	for i := 0; i < 5; i++ {
		again := collectVisits(t, cf, ivs)
		if len(again) != len(warm) {
			t.Fatalf("repeat visit %d: %d records, want %d", i, len(again), len(warm))
		}
	}
	if got := cfs.ReadBytes(); got != cold {
		t.Fatalf("warm visits read %d bytes from the filesystem", got-cold)
	}
	st := cache.Stats()
	if st.Misses == 0 || st.Hits == 0 {
		t.Fatalf("expected both misses (first pass) and hits (repeats): %+v", st)
	}
}

// TestBlockCacheEviction: a cache holding a fraction of the file must
// stay within budget, evict, and keep serving correct results.
func TestBlockCacheEviction(t *testing.T) {
	path, db := coldTestFile(t, 19, 400, 6, 1)
	recBytes := db.Len() * (len(db.FP(0)) + 8 /* at least */)
	cache := NewBlockCache(int64(recBytes) / 10)
	cf, err := OpenColdFS(OSFS, path, cache, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	for pass := 0; pass < 3; pass++ {
		got := collectVisits(t, cf, fullPlan)
		if len(got) != db.Len() {
			t.Fatalf("pass %d: visited %d of %d records", pass, len(got), db.Len())
		}
	}
	st := cache.Stats()
	if st.Bytes > st.BudgetBytes {
		t.Fatalf("cache %d bytes over budget %d", st.Bytes, st.BudgetBytes)
	}
	if st.Evictions == 0 {
		t.Fatalf("full scans at 10%% budget never evicted: %+v", st)
	}
}

// TestBlockCacheSharedAcrossFiles: two cold files share one cache;
// dropping one file's blocks (by closing it) must not disturb the
// other's, and ids must not collide.
func TestBlockCacheSharedAcrossFiles(t *testing.T) {
	pathA, dbA := coldTestFile(t, 23, 150, 6, 1)
	pathB, dbB := coldTestFile(t, 29, 150, 6, 1)
	cfs := NewCountingFS(OSFS)
	cache := NewBlockCache(1 << 20)
	cfA, err := OpenColdFS(cfs, pathA, cache, 32)
	if err != nil {
		t.Fatal(err)
	}
	cfB, err := OpenColdFS(cfs, pathB, cache, 32)
	if err != nil {
		t.Fatal(err)
	}
	defer cfB.Close()
	r := rand.New(rand.NewSource(31))
	ivs := randIntervals(r, dbA.Curve(), 3)
	collectVisits(t, cfA, ivs)
	wantB := collectVisits(t, dbB, ivs)
	collectVisits(t, cfB, ivs)
	before := cache.Stats()
	if err := cfA.Close(); err != nil {
		t.Fatal(err)
	}
	after := cache.Stats()
	if after.Blocks >= before.Blocks && before.Blocks > 0 {
		t.Fatalf("closing file A dropped nothing: %d -> %d blocks", before.Blocks, after.Blocks)
	}
	// B's blocks survived: the repeat visit is served without disk reads.
	read := cfs.ReadBytes()
	gotB := collectVisits(t, cfB, ivs)
	if cfs.ReadBytes() != read {
		t.Fatal("closing file A evicted file B's blocks")
	}
	if len(gotB) != len(wantB) {
		t.Fatalf("file B visit after drop: %d records, want %d", len(gotB), len(wantB))
	}
	// A visit against the closed file must fail, not crash.
	if err := cfA.VisitIntervals(ivs.depth, ivs.runs, func(*Chunk, int, int) bool { return true }); err == nil {
		t.Fatal("VisitIntervals on a closed cold file succeeded")
	}
	if _, err := cfA.CountID(0); err == nil {
		t.Fatal("CountID on a closed cold file succeeded")
	}
}

// TestColdFileConcurrent hammers one starved cache from many goroutines
// mixing queries over two files with a mid-test close of one file. Run
// under -race this exercises the hit/miss/eviction/drop interleavings;
// every completed visit must still be exact.
func TestColdFileConcurrent(t *testing.T) {
	pathA, dbA := coldTestFile(t, 37, 300, 6, 2)
	pathB, dbB := coldTestFile(t, 41, 300, 6, 2)
	cache := NewBlockCache(1500) // a handful of blocks at most
	cfA, err := OpenColdFS(OSFS, pathA, cache, 8)
	if err != nil {
		t.Fatal(err)
	}
	cfB, err := OpenColdFS(OSFS, pathB, cache, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer cfB.Close()
	defer cfA.Close()

	const workers = 8
	const rounds = 40
	closeAt := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < rounds; i++ {
				cf, db := cfA, dbA
				if w%2 == 1 {
					cf, db = cfB, dbB
				}
				ivs := randIntervals(r, db.Curve(), 1+r.Intn(4))
				var got []flatRecord
				err := cf.VisitIntervals(ivs.depth, ivs.runs, PerRecord(func(c *Chunk, i int) bool {
					got = append(got, flatAt(c, i))
					return true
				}))
				if err != nil {
					if cf == cfA {
						// cfA closes mid-test; an error after that is the
						// documented behaviour, not a failure.
						select {
						case <-closeAt:
							return
						default:
						}
					}
					errs <- fmt.Errorf("worker %d round %d: %v", w, i, err)
					return
				}
				want := collectVisits(t, db, ivs)
				if len(got) != len(want) {
					errs <- fmt.Errorf("worker %d round %d: %d records, want %d", w, i, len(got), len(want))
					return
				}
				for j := range want {
					if got[j] != want[j] {
						errs <- fmt.Errorf("worker %d round %d: record %d differs", w, i, j)
						return
					}
				}
				if w == 0 && i == rounds/2 {
					close(closeAt)
					if err := cfA.Close(); err != nil {
						errs <- fmt.Errorf("mid-test close: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := cache.Stats(); st.Bytes > st.BudgetBytes {
		t.Fatalf("cache settled %d bytes over budget %d", st.Bytes, st.BudgetBytes)
	}
}

// TestBlockCacheSingleflight: concurrent first touches of one block must
// issue one disk read; the waiters count as hits.
func TestBlockCacheSingleflight(t *testing.T) {
	path, db := coldTestFile(t, 43, 200, 6, 1)
	cfs := NewCountingFS(OSFS)
	cache := NewBlockCache(1 << 20)
	cf, err := OpenColdFS(cfs, path, cache, 1<<20) // one block: the whole file
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	const workers = 8
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			n := 0
			if err := cf.VisitIntervals(fullPlan.depth, fullPlan.runs, func(_ *Chunk, lo, hi int) bool { n += hi - lo; return true }); err != nil {
				t.Error(err)
				return
			}
			if n != db.Len() {
				t.Errorf("visited %d of %d", n, db.Len())
			}
		}()
	}
	close(start)
	wg.Wait()
	st := cache.Stats()
	if st.Misses != 1 {
		t.Fatalf("%d workers caused %d misses, want exactly 1", workers, st.Misses)
	}
	if st.Hits != workers-1 {
		t.Fatalf("%d workers: %d hits, want %d", workers, st.Hits, workers-1)
	}
}
