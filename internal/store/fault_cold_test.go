package store_test

// Read-fault coverage of the sketch/codec cold paths introduced with the
// format-4 sections: the lean area, the packed-code area and the
// single-record exact fallback reads are all served by preads that can
// fail mid-query. The guarantee is the same one the exact block path
// carries — a faulted read surfaces as an error, never a torn or wrong
// result, and never poisons the cache for the retry.

import (
	"math"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"s3cbcd/internal/faultfs"
	"s3cbcd/internal/hilbert"
	"s3cbcd/internal/store"
)

// coldFaultFile writes a v4 (sketch + codec) file through a healthy
// filesystem and returns its path with the source DB.
func coldFaultFile(t *testing.T, seed int64, n int) (string, *store.DB) {
	t.Helper()
	curve := hilbert.MustNew(6, 4)
	r := rand.New(rand.NewSource(seed))
	recs := make([]store.Record, n)
	for i := range recs {
		fp := make([]byte, curve.Dims())
		for j := range fp {
			fp[j] = byte(r.Intn(1 << curve.Order()))
		}
		recs[i] = store.Record{FP: fp, ID: uint32(r.Intn(40)), TC: uint32(r.Intn(9000)),
			X: uint16(r.Intn(720)), Y: uint16(r.Intn(576))}
	}
	db, err := store.Build(curve, recs)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "v4.s3db")
	if err := db.WriteFileOpts(path, store.WriteOptions{
		SectionBits: 6, Sketch: true, Codec: true,
	}); err != nil {
		t.Fatal(err)
	}
	return path, db
}

// faultPlan is a sorted, merged run list at its depth.
type faultPlan struct {
	depth int
	runs  []hilbert.Run
}

// faultRandIntervals returns up to n random runs at a random depth of
// the curve, whose index must fit a uint64.
func faultRandIntervals(r *rand.Rand, curve *hilbert.Curve, n int) faultPlan {
	depth := 1 + r.Intn(curve.IndexBits())
	return faultPlan{depth: depth, runs: store.RandRuns(r, depth, n)}
}

func faultDistSq(qf []float64, fp []byte) float64 {
	s := 0.0
	for j, q := range qf {
		d := q - float64(fp[j])
		s += d * d
	}
	return s
}

// TestColdReadFaultsLeanAndFilteredPaths runs the lean and
// quantize-filtered visit paths under a gated seeded read injector
// (mirroring faultfs.NewSeededReads, gated healthy for the open): every
// call either errors or answers exactly what the in-memory DB answers.
// The per-survivor fallback reads — uncached preads into the exact area
// — are inside the blast radius, which is the point: a fault there must
// abort the query, not drop one survivor.
func TestColdReadFaultsLeanAndFilteredPaths(t *testing.T) {
	path, db := coldFaultFile(t, 81, 400)
	var (
		chaos   atomic.Bool
		chaosMu sync.Mutex
		rng     = rand.New(rand.NewSource(82))
	)
	fs := faultfs.New(store.OSFS, func(op faultfs.Op, _ string, _ int) faultfs.Action {
		if !chaos.Load() || (op != faultfs.OpRead && op != faultfs.OpReadAt) {
			return faultfs.Pass
		}
		chaosMu.Lock()
		defer chaosMu.Unlock()
		if rng.Float64() >= 0.3 {
			return faultfs.Pass
		}
		if rng.Intn(2) == 0 {
			return faultfs.ShortWrite
		}
		return faultfs.Fail
	})
	// Roomy cache: once a block survives a load it stays, so later rounds
	// exercise the mix of cached blocks and always-uncached fallback
	// preads rather than failing every time on reloads.
	ctr := store.NewColdCounters()
	cf, err := store.OpenColdOptsFS(fs, path, store.ColdOptions{
		Cache: store.NewBlockCache(1 << 20), BlockRecords: 8,
		Sketch: true, Codec: true, Counters: ctr,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	chaos.Store(true)
	defer chaos.Store(false)

	r := rand.New(rand.NewSource(83))
	okLean, okFilt, failed := 0, 0, 0
	for i := 0; i < 120; i++ {
		ivs := faultRandIntervals(r, db.Curve(), 1+r.Intn(4))
		if i%2 == 0 {
			var got, want []uint64
			err := cf.VisitIntervalsLean(ivs.depth, ivs.runs, store.PerRecord(func(c *store.Chunk, i int) bool {
				got = append(got, uint64(c.ID(i))<<32|uint64(c.TC(i)))
				return true
			}))
			if err != nil {
				failed++
				continue
			}
			okLean++
			_ = db.VisitIntervals(ivs.depth, ivs.runs, store.PerRecord(func(c *store.Chunk, i int) bool {
				want = append(want, uint64(c.ID(i))<<32|uint64(c.TC(i)))
				return true
			}))
			if len(got) != len(want) {
				t.Fatalf("round %d: lean visit survived chaos with %d records, want %d", i, len(got), len(want))
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("round %d: lean record %d differs under chaos", i, j)
				}
			}
			continue
		}
		qf := make([]float64, db.Dims())
		for j := range qf {
			qf[j] = r.Float64() * 16
		}
		boundSq := 4 + r.Float64()*100
		within := map[int]string{}
		_ = db.VisitIntervals(ivs.depth, ivs.runs, store.PerRecord(func(c *store.Chunk, i int) bool {
			if faultDistSq(qf, c.FP(i)) <= boundSq {
				within[c.Base()+i] = string(c.FP(i))
			}
			return true
		}))
		seen := map[int]bool{}
		err := cf.VisitIntervalsFiltered(ivs.depth, ivs.runs, qf, boundSq, store.PerRecord(func(c *store.Chunk, j int) bool {
			pos := c.Base() + j
			seen[pos] = true
			if fp, ok := within[pos]; ok && string(c.FP(j)) != fp {
				t.Fatalf("round %d: filtered record %d carries wrong bytes under chaos", i, pos)
			}
			return true
		}))
		if err != nil {
			failed++
			continue
		}
		okFilt++
		for pos := range within {
			if !seen[pos] {
				t.Fatalf("round %d: filtered visit survived chaos but dropped in-radius record %d", i, pos)
			}
		}
	}
	if failed == 0 {
		t.Fatal("30% read-fault rate never failed a lean/filtered visit — the injector is not wired")
	}
	if okLean == 0 || okFilt == 0 {
		t.Fatalf("no visit of some kind ever succeeded under chaos (lean %d, filtered %d)", okLean, okFilt)
	}

	// Heal: with chaos off, both paths answer exactly and the cache holds
	// no poisoned entry.
	chaos.Store(false)
	ivs := faultRandIntervals(r, db.Curve(), 3)
	n, wantN := 0, 0
	count := func(n *int) func(*store.Chunk, int, int) bool {
		return func(_ *store.Chunk, lo, hi int) bool { *n += hi - lo; return true }
	}
	if err := cf.VisitIntervalsLean(ivs.depth, ivs.runs, count(&n)); err != nil {
		t.Fatalf("lean visit after chaos cleared: %v", err)
	}
	_ = db.VisitIntervals(ivs.depth, ivs.runs, count(&wantN))
	if n != wantN {
		t.Fatalf("healed lean visit saw %d records, want %d", n, wantN)
	}
	qf := make([]float64, db.Dims())
	if err := cf.VisitIntervalsFiltered(ivs.depth, ivs.runs, qf, math.Inf(1), func(*store.Chunk, int, int) bool { return true }); err != nil {
		t.Fatalf("filtered visit after chaos cleared: %v", err)
	}
	if err := cf.Close(); err != nil {
		t.Fatal(err)
	}
	if lh := fs.OpenHandles(); lh != 0 {
		t.Fatalf("closed cold file leaked %d descriptors", lh)
	}
}

// TestColdReadFaultsSeededOpenV4: the ungated NewSeededReads constructor
// against a v4 file — at rate 1 the open itself (which probes the
// sketch, codec, lean and code sections) must fail without leaking; at
// rate 0 everything works including the filtered path.
func TestColdReadFaultsSeededOpenV4(t *testing.T) {
	path, db := coldFaultFile(t, 91, 150)
	always := faultfs.NewSeededReads(store.OSFS, 1, 1.0)
	if cf, err := store.OpenColdOptsFS(always, path, store.ColdOptions{Sketch: true, Codec: true}); err == nil {
		cf.Close()
		t.Fatal("cold open of a v4 file with every read faulted succeeded")
	}
	if lh := always.OpenHandles(); lh != 0 {
		t.Fatalf("failed cold open leaked %d descriptors", lh)
	}

	never := faultfs.NewSeededReads(store.OSFS, 1, 0)
	cf, err := store.OpenColdOptsFS(never, path, store.ColdOptions{Sketch: true, Codec: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	n := 0
	qf := make([]float64, db.Dims())
	if err := cf.VisitIntervalsFiltered(1, []hilbert.Run{{Lo: 0, Hi: 2}}, qf, math.Inf(1),
		func(_ *store.Chunk, lo, hi int) bool { n += hi - lo; return true }); err != nil {
		t.Fatal(err)
	}
	if n != db.Len() {
		t.Fatalf("rate-0 filtered full scan visited %d of %d", n, db.Len())
	}
}
