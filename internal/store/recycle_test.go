package store_test

// Cold block buffers are recycled: a block evicted, dropped or never
// retained goes back to a pool once its last reader unpins it, and the
// next miss reads into it. These tests poison every recycled buffer
// (store.PoisonRecycled) and check each visited span's rows against the
// in-memory DB inside the visit callback — the window in which a block
// recycled too early would be overwritten — while several goroutines
// collide on a cache too small to keep anything.

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"s3cbcd/internal/faultfs"
	"s3cbcd/internal/store"
)

// Visit kinds a recycled-buffer round exercises.
const (
	visitExact = iota
	visitLean
	visitFiltered
	visitKinds
)

// errMismatch marks a visit that delivered a record differing from the DB.
type errMismatch struct{ msg string }

func (e errMismatch) Error() string { return e.msg }

// checkRecycledVisit runs one visit of the given kind over ivs and checks
// every row of every delivered span, field by field, against the DB at
// its position while the callback holds the span. Exact and lean visits must deliver exactly
// the DB's records in order; a filtered visit may deliver extra records
// but must deliver every one within boundSq of qf. It returns the visit's
// own error, or an errMismatch.
func checkRecycledVisit(cf *store.ColdFile, db *store.DB, kind int, ivs faultPlan,
	qf []float64, boundSq float64) error {
	var want []int
	_ = db.VisitIntervals(ivs.depth, ivs.runs, store.PerRecord(func(c *store.Chunk, i int) bool {
		if kind != visitFiltered || faultDistSq(qf, c.FP(i)) <= boundSq {
			want = append(want, c.Base()+i)
		}
		return true
	}))
	var bad error
	n := 0
	check := func(c *store.Chunk, lo, hi int) bool {
		if lo < 0 || lo >= hi || hi > c.Len() {
			bad = errMismatch{fmt.Sprintf("kind %d: span [%d,%d) of a %d-row chunk", kind, lo, hi, c.Len())}
			return false
		}
		for j := lo; j < hi && bad == nil; j++ {
			i := c.Base() + j
			if n%7 == 0 {
				runtime.Gosched() // widen the window a premature recycle needs
			}
			switch {
			case kind != visitFiltered && (n >= len(want) || want[n] != i):
				bad = errMismatch{fmt.Sprintf("kind %d: record %d at position %d, want the DB's order", kind, n, i)}
			case i < 0 || i >= db.Len():
				bad = errMismatch{fmt.Sprintf("kind %d: position %d outside the DB", kind, i)}
			case c.Key(j) != db.Key(i) || c.ID(j) != db.ID(i) || c.TC(j) != db.TC(i) || c.X(j) != db.X(i) || c.Y(j) != db.Y(i):
				bad = errMismatch{fmt.Sprintf("kind %d: record %d differs from the DB", kind, i)}
			case kind == visitLean && c.FP(j) != nil:
				bad = errMismatch{fmt.Sprintf("lean record %d carries a fingerprint", i)}
			case kind != visitLean && string(c.FP(j)) != string(db.FP(i)):
				bad = errMismatch{fmt.Sprintf("kind %d: record %d fingerprint differs from the DB", kind, i)}
			case kind == visitFiltered && faultDistSq(qf, c.FP(j)) <= boundSq:
				if len(want) == 0 || want[0] != i {
					bad = errMismatch{fmt.Sprintf("filtered visit reached in-radius record %d out of order", i)}
				} else {
					want = want[1:]
				}
			}
			n++
		}
		return bad == nil
	}
	var err error
	switch kind {
	case visitExact:
		err = cf.VisitIntervals(ivs.depth, ivs.runs, check)
	case visitLean:
		err = cf.VisitIntervalsLean(ivs.depth, ivs.runs, check)
	default:
		err = cf.VisitIntervalsFiltered(ivs.depth, ivs.runs, qf, boundSq, check)
	}
	switch {
	case err != nil:
		return err
	case bad != nil:
		return bad
	case kind == visitFiltered && len(want) > 0:
		return errMismatch{fmt.Sprintf("filtered visit dropped in-radius record %d", want[0])}
	case kind != visitFiltered && n != len(want):
		return errMismatch{fmt.Sprintf("kind %d: visited %d records, want %d", kind, n, len(want))}
	}
	return nil
}

// recycleRounds is the shared workload: a few plans every worker visits,
// so singleflight waiters collide, cycled through the three visit kinds
// with query points whose radii select sparse and dense survivors.
type recycleRounds struct {
	plans []faultPlan
	qfs   [][]float64
}

func newRecycleRounds(db *store.DB, seed int64) recycleRounds {
	r := rand.New(rand.NewSource(seed))
	var rr recycleRounds
	for p := 0; p < 5; p++ {
		rr.plans = append(rr.plans, faultRandIntervals(r, db.Curve(), 2+r.Intn(4)))
		qf := make([]float64, db.Dims())
		for j := range qf {
			qf[j] = r.Float64() * 16
		}
		rr.qfs = append(rr.qfs, qf)
	}
	return rr
}

// visit runs worker w's round i against cf.
func (rr recycleRounds) visit(cf *store.ColdFile, db *store.DB, w, i int) error {
	p := (w + i) % len(rr.plans)
	boundSq := []float64{9, 60, 400}[(w+i/visitKinds)%3]
	return checkRecycledVisit(cf, db, i%visitKinds, rr.plans[p], rr.qfs[p], boundSq)
}

// TestColdRecycledBlocksNeverRead: 8 goroutines visit overlapping exact,
// lean and filtered plans over cold files sharing one cache — none, one
// whose budget is below one block (every block is evicted the moment it
// lands, pinned or not), and one of a few blocks — while one of two files
// closes mid-run, dropping blocks readers still pin. Every recycled
// buffer is poisoned, so a block recycled under a reader shows up as a
// record differing from the DB (and, under -race, as a race). Afterwards
// every drawn buffer is back in the pool exactly once.
func TestColdRecycledBlocksNeverRead(t *testing.T) {
	path, db := coldFaultFile(t, 97, 400)
	rounds := newRecycleRounds(db, 98)
	for _, c := range []struct {
		name   string
		budget int64 // < 0: no cache
	}{{"uncached", -1}, {"below-one-block", 1}, {"few-blocks", 600}} {
		t.Run(c.name, func(t *testing.T) {
			outstanding := store.PoisonRecycled(t)
			var cache *store.BlockCache
			if c.budget >= 0 {
				cache = store.NewBlockCache(c.budget)
			}
			open := func() *store.ColdFile {
				cf, err := store.OpenColdOptsFS(store.OSFS, path, store.ColdOptions{
					Cache: cache, BlockRecords: 8, Sketch: true, Codec: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				return cf
			}
			kept, closing := open(), open()
			const workers, perWorker = 8, 60
			var closed atomic.Bool
			var wg sync.WaitGroup
			errs := make(chan error, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < perWorker; i++ {
						cf := kept
						if w%2 == 1 {
							cf = closing
						}
						if err := rounds.visit(cf, db, w, i); err != nil {
							if _, bad := err.(errMismatch); !bad && cf == closing && closed.Load() {
								return // visits after Close fail, as documented
							}
							errs <- fmt.Errorf("worker %d round %d: %w", w, i, err)
							return
						}
						if w == 0 && i == perWorker/2 {
							closed.Store(true)
							if err := closing.Close(); err != nil {
								errs <- err
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
			if err := kept.Close(); err != nil {
				t.Fatal(err)
			}
			if n := outstanding(); n != 0 {
				t.Fatalf("%d drawn block buffers never came back to the pool", n)
			}
			if cache != nil {
				if st := cache.Stats(); c.budget == 1 && st.Evictions == 0 {
					t.Fatalf("a cache below one block never evicted: %+v", st)
				}
			}
		})
	}
}

// TestColdReadRecycledAfterFailedLoads: the same workload through a cache
// below one block while faultfs fails or tears 30% of ReadAt calls. A
// failed load hands its buffer back exactly once (a second hand-back
// fails the poison switch; a lost one shows in the outstanding count at
// the end), and every visit that succeeds — during the
// faults and after they clear — matches the DB.
func TestColdReadRecycledAfterFailedLoads(t *testing.T) {
	path, db := coldFaultFile(t, 99, 400)
	rounds := newRecycleRounds(db, 100)
	var (
		chaos   atomic.Bool
		chaosMu sync.Mutex
		rng     = rand.New(rand.NewSource(101))
	)
	fs := faultfs.New(store.OSFS, func(op faultfs.Op, _ string, _ int) faultfs.Action {
		if !chaos.Load() || op != faultfs.OpReadAt {
			return faultfs.Pass
		}
		chaosMu.Lock()
		defer chaosMu.Unlock()
		switch f := rng.Float64(); {
		case f < 0.15:
			return faultfs.ShortWrite // a torn read: half the buffer, then an error
		case f < 0.3:
			return faultfs.Fail
		}
		return faultfs.Pass
	})
	outstanding := store.PoisonRecycled(t)
	cache := store.NewBlockCache(1)
	cf, err := store.OpenColdOptsFS(fs, path, store.ColdOptions{
		Cache: cache, BlockRecords: 8, Sketch: true, Codec: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Phases: healthy, faulted, healthy again. Only the faulted phase may
	// fail a visit, and only with a read error.
	var failed atomic.Int64
	for phase, faulty := range []bool{false, true, false} {
		chaos.Store(faulty)
		const workers, perWorker = 4, 45
		var wg sync.WaitGroup
		errs := make(chan error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					err := rounds.visit(cf, db, w, i)
					if _, bad := err.(errMismatch); err != nil && faulty && !bad {
						failed.Add(1)
						continue
					}
					if err != nil {
						errs <- fmt.Errorf("phase %d worker %d round %d: %w", phase, w, i, err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	}
	if failed.Load() == 0 {
		t.Fatal("a 30% read-fault rate never failed a visit — the injector is not wired")
	}
	qf := make([]float64, db.Dims())
	if err := checkRecycledVisit(cf, db, visitFiltered, rounds.plans[0], qf, math.Inf(1)); err != nil {
		t.Fatalf("healthy filtered visit after the faults: %v", err)
	}
	if err := cf.Close(); err != nil {
		t.Fatal(err)
	}
	if n := outstanding(); n != 0 {
		t.Fatalf("%d drawn block buffers never came back to the pool", n)
	}
	if lh := fs.OpenHandles(); lh != 0 {
		t.Fatalf("closed cold file leaked %d descriptors", lh)
	}
}
