package core

// The live index's compaction: singleflighted, merge and segment write
// off the writer lock (see live.go for the design).

import (
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"s3cbcd/internal/store"
)

// compactAsync starts a background compaction unless one is already
// running. Called with mu held; the goroutine acquires mu only for its
// commit phase. A failed compaction is retried with capped exponential
// backoff and jitter — up to RetryLimit attempts, then it gives up until
// a later seal re-triggers it (or, when its failures tripped degraded
// mode, until the retry loop's first successful commit re-triggers it
// from persistLocked); failures are recorded for Stats.
func (li *LiveIndex) compactAsync() {
	if !li.compactMu.TryLock() {
		return
	}
	li.wg.Add(1)
	go func() {
		defer li.wg.Done()
		defer li.compactMu.Unlock()
		attempts := li.opt.RetryLimit
		if attempts < 1 {
			attempts = DefaultLiveRetryLimit
		}
		for attempt := 0; attempt < attempts; attempt++ {
			if attempt > 0 {
				li.met.persistRetries.Inc()
				select {
				case <-li.closedCh:
					return
				case <-time.After(li.backoffDelay(attempt - 1)):
				}
			}
			if err := li.compact(); err == nil || errors.Is(err, ErrClosed) {
				return
			}
		}
	}()
}

// Compact synchronously folds every sealed segment — applying tombstone
// masks — into one base segment via the canonical merge.
func (li *LiveIndex) Compact() error {
	li.compactMu.Lock()
	defer li.compactMu.Unlock()
	return li.compact()
}

// compact runs with compactMu held. The merge phase and the merged
// segment's file write both run off the writer lock (the merged DB is
// immutable and its name is never reused); only revalidation, the
// manifest commit and snapshot publication run under mu. Superseded
// input files are not deleted here — the retained predecessor manifest
// still references them as the recovery fallback — the deferred GC in
// commitLocked collects them once a later commit prunes that manifest.
func (li *LiveIndex) compact() error {
	if li.closed.Load() {
		return ErrClosed
	}
	t0 := time.Now()
	snap := li.snap.Load()
	inputs := snap.segs
	if len(inputs) == 0 || (len(inputs) == 1 && len(inputs[0].tomb) == 0) {
		return nil
	}
	merged, err := inputs[0].compacted()
	if err != nil {
		return err
	}
	for _, s := range inputs[1:] {
		sdb, err := s.compacted()
		if err != nil {
			return err
		}
		m, err := store.Merge(merged, sdb)
		if err != nil {
			return err
		}
		merged = m
	}
	// Write the merged segment before taking the writer lock, so
	// Ingest/DeleteVideo/Flush never stall on this potentially large disk
	// write. The file contents are final: tombstones added while merging
	// are carried as a mask on the new segment, not rewritten into it.
	var (
		name    string
		release func()
	)
	if li.dir != "" && merged.Len() > 0 {
		name = li.nextSegName()
		release = li.protectPending(name)
		if err := merged.WriteFileOptsFS(li.fs, filepath.Join(li.dir, name),
			li.segWriteOptions(merged.Len())); err != nil {
			li.fs.Remove(filepath.Join(li.dir, name))
			release()
			li.log.Warn("compaction segment write failed", "segment", name, "err", err)
			li.notePersistFailure(err, false)
			return err
		}
	}
	abort := func(err error) error {
		if release != nil {
			li.fs.Remove(filepath.Join(li.dir, name))
			release()
		}
		return err
	}

	// The inputs' cold files retire once the new snapshot is published.
	// Closing them must wait for queries that loaded the old snapshot to
	// drain, and taking the queryGate under mu would deadlock with them —
	// so the quiesce-and-close runs in a defer registered BEFORE mu is
	// locked (defers run in reverse order: mu unlocks first).
	var retire []*store.ColdFile
	defer func() {
		if len(retire) == 0 {
			return
		}
		li.queryGate.Lock()
		li.queryGate.Unlock()
		for _, cf := range retire {
			cf.Close()
		}
	}()

	li.mu.Lock()
	defer li.mu.Unlock()
	if li.closed.Load() {
		return abort(ErrClosed)
	}
	cur := li.snap.Load()
	k := len(inputs)
	// Seals only append and compaction is singleflighted, so the inputs
	// are still the prefix of the current segment list (deletes replace
	// the wrapper but keep the record set).
	for i := 0; i < k; i++ {
		if !cur.segs[i].sameData(inputs[i]) {
			return abort(fmt.Errorf("core: compaction inputs changed underfoot"))
		}
	}
	// Tombstones added to the inputs while merging become the new base
	// segment's mask (applied physically by the next compaction), keeping
	// the already-written file valid.
	var delta map[uint32]struct{}
	for i := 0; i < k; i++ {
		for id := range cur.segs[i].tomb {
			if _, had := inputs[i].tomb[id]; !had {
				if delta == nil {
					delta = make(map[uint32]struct{})
				}
				delta[id] = struct{}{}
			}
		}
	}
	next := &liveSnapshot{gen: cur.gen + 1, mem: cur.mem}
	var base []*liveSegment
	if merged.Len() > 0 {
		seg := &liveSegment{db: merged, name: name, tomb: delta, live: merged.Len(),
			sketch: li.buildSketch(merged)}
		for id := range delta {
			seg.live -= merged.CountID(id)
		}
		base = []*liveSegment{seg}
	}
	next.segs = append(base, cur.segs[k:]...)
	if err := li.commitLocked(next); err != nil {
		// The compaction's commit failed; the old layout stays published
		// and durable (nothing is owed), but the failure feeds the
		// degraded-mode streak.
		li.log.Warn("compaction commit failed", "err", err)
		li.notePersistFailure(err, false)
		return abort(err)
	}
	// Committed: a big merged base serves cold from the file just
	// written (opened before publication so readers never see it flip).
	// An open failure leaves it resident — the merge result is in memory
	// anyway.
	if len(base) == 1 && li.coldEligible(merged.Len()) {
		if cf, err := li.openCold(name); err != nil {
			li.log.Warn("cold open of compacted segment failed, serving resident",
				"segment", name, "err", err)
		} else {
			base[0].cold, base[0].db = cf, nil
		}
	}
	li.publish(next)
	// The superseded inputs' cold files are now unreachable from the
	// published snapshot; the pre-registered defer closes them once
	// in-flight queries drain.
	for i := 0; i < k; i++ {
		if cur.segs[i].cold != nil {
			retire = append(retire, cur.segs[i].cold)
		}
	}
	li.met.compactions.Inc()
	li.met.compactSeconds.ObserveSince(t0)
	li.log.Info("compaction committed", "inputs", k, "records", merged.Len(),
		"cold", len(base) == 1 && base[0].cold != nil,
		"gen", next.gen, "seconds", time.Since(t0).Seconds())
	if release != nil {
		release()
	}
	return nil
}
