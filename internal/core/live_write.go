package core

// The live index's write path: ingest, seal, delete, manifest commit, and
// the persistence retry / degraded-mode machinery (see live.go for the
// design).

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"time"

	"s3cbcd/internal/store"
)

// Ingest adds a batch of reference records: they are curve-sorted,
// merged into the memtable and visible to queries on return. When the
// memtable reaches the seal threshold it becomes an immutable segment
// (durably committed when the index has a directory), and a background
// compaction is triggered once enough segments accumulate.
func (li *LiveIndex) Ingest(recs []store.Record) error {
	if len(recs) == 0 {
		return nil
	}
	batch, err := store.Build(li.pl.curve, recs)
	if err != nil {
		return err
	}
	li.mu.Lock()
	defer li.mu.Unlock()
	if li.closed.Load() {
		return ErrClosed
	}
	if li.degraded.Load() {
		return li.degradedErr()
	}
	cur := li.snap.Load()
	memDB, err := store.Merge(cur.mem.db, batch)
	if err != nil {
		return err
	}
	next := &liveSnapshot{gen: cur.gen + 1, segs: cur.segs, mem: &liveSegment{db: memDB, live: memDB.Len()}}
	if memDB.Len() >= li.opt.MemtableRecords {
		if err := li.sealInto(next); err != nil {
			// The seal failed (segment write or manifest commit). The batch
			// is still accepted: republish with the grown memtable — the
			// records stay query-visible in memory — record the failure, and
			// let the background loop retry the seal with backoff.
			next = &liveSnapshot{gen: cur.gen + 1, segs: cur.segs,
				mem: &liveSegment{db: memDB, live: memDB.Len()}}
			li.notePersistFailure(err, true)
		}
	}
	li.publish(next)
	li.met.ingested.Add(int64(len(recs)))
	if len(next.segs) >= li.opt.CompactSegments {
		li.compactAsync()
	}
	return nil
}

// sealInto converts next's memtable into a sealed immutable segment,
// writing its file and committing the manifest when durable. The caller
// holds mu; next is not yet published. The file write happens under mu
// but is bounded by the memtable seal threshold, unlike a compaction's
// (which therefore runs off the lock).
func (li *LiveIndex) sealInto(next *liveSnapshot) error {
	if next.mem.db.Len() == 0 {
		return nil
	}
	t0 := time.Now()
	seg := &liveSegment{db: next.mem.db, live: next.mem.db.Len(),
		sketch: li.buildSketch(next.mem.db)}
	if li.dir != "" {
		seg.name = li.nextSegName()
		if err := seg.db.WriteFileOptsFS(li.fs, filepath.Join(li.dir, seg.name),
			li.segWriteOptions(seg.db.Len())); err != nil {
			return err
		}
	}
	next.segs = append(append([]*liveSegment{}, next.segs...), seg)
	empty, err := store.Build(li.pl.curve, nil)
	if err != nil {
		return err
	}
	next.mem = &liveSegment{db: empty}
	if err := li.commitLocked(next); err != nil {
		// Best-effort removal of the segment file written for the failed
		// commit (mirroring compact's cleanup): each background retry
		// allocates a fresh name and writes a fresh file, so a persistent
		// commit failure would otherwise strand one orphan per attempt.
		// Recovery never adopts the failed manifest — with its segment gone
		// it fails validation and falls back to the predecessor.
		if seg.name != "" {
			li.fs.Remove(filepath.Join(li.dir, seg.name))
		}
		return err
	}
	// The segment is committed; a big one moves to the cold tier by
	// reopening its just-written file. Failure to open it is not a seal
	// failure — the records are durable and resident — so the segment
	// just stays resident.
	if li.coldEligible(seg.db.Len()) {
		if cf, err := li.openCold(seg.name); err != nil {
			li.log.Warn("cold open of sealed segment failed, serving resident",
				"segment", seg.name, "err", err)
		} else {
			seg.cold, seg.db = cf, nil
		}
	}
	li.met.sealSeconds.ObserveSince(t0)
	li.log.Debug("memtable sealed", "segment", seg.name, "records", seg.live,
		"cold", seg.cold != nil, "gen", next.gen)
	return nil
}

// Flush seals the current memtable (whatever its size) so its records
// are part of the durable committed snapshot.
func (li *LiveIndex) Flush() error {
	li.mu.Lock()
	defer li.mu.Unlock()
	if li.closed.Load() {
		return ErrClosed
	}
	cur := li.snap.Load()
	if cur.mem.db.Len() == 0 {
		return nil
	}
	next := &liveSnapshot{gen: cur.gen + 1, segs: cur.segs, mem: cur.mem}
	if err := li.sealInto(next); err != nil {
		// The sealed snapshot was never published, so durable state does
		// not lag the published one: nothing is owed (marking it owed would
		// make the retry loop re-commit the unchanged manifest and clear
		// dirty while the memtable stays volatile). The caller holds the
		// error and decides whether to retry; the failure still feeds the
		// degraded-mode streak. An over-threshold memtable is re-sealed by
		// the retry loop regardless, via Ingest's owed path.
		li.notePersistFailure(err, false)
		return err
	}
	li.publish(next)
	return nil
}

// DeleteVideo withdraws every currently stored record of the given video
// identifier: sealed segments gain a tombstone mask (applied physically
// at the next compaction), the memtable is filtered in place. Records of
// the same identifier ingested afterwards are unaffected.
func (li *LiveIndex) DeleteVideo(id uint32) error {
	li.mu.Lock()
	defer li.mu.Unlock()
	if li.closed.Load() {
		return ErrClosed
	}
	if li.degraded.Load() {
		return li.degradedErr()
	}
	cur := li.snap.Load()
	changed := false
	segs := make([]*liveSegment, len(cur.segs))
	for i, s := range cur.segs {
		segs[i] = s
		if s.masked(id) {
			continue
		}
		// Cold segments count by scanning their file; a read failure
		// aborts the delete before any state changed.
		n, err := s.countID(id)
		if err != nil {
			return fmt.Errorf("core: delete scan of segment %s: %w", s.name, err)
		}
		if n > 0 {
			segs[i] = s.withTombstone(id, n)
			changed = true
		}
	}
	mem := cur.mem
	if mem.db.ContainsID(id) {
		fdb := store.Filter(mem.db, func(rid, _ uint32) bool { return rid != id })
		mem = &liveSegment{db: fdb, live: fdb.Len()}
		changed = true
	}
	if !changed {
		return nil
	}
	next := &liveSnapshot{gen: cur.gen + 1, segs: segs, mem: mem}
	if err := li.commitLocked(next); err != nil {
		// The tombstones could not be committed, but the delete is still
		// honored in memory: publish the masked snapshot so queries stop
		// returning the video, record the failure, and let the background
		// loop retry the commit — a crash before it lands would resurrect
		// the video, which is why dirty stays set until the commit does.
		li.notePersistFailure(err, true)
	}
	li.publish(next)
	li.met.deletes.Inc()
	return nil
}

// commitLocked durably commits the snapshot's manifest, then collects
// segment files no retained manifest references any more (files the
// predecessor manifest — kept as the recovery fallback — still names
// survive until a later commit prunes it). The caller holds mu;
// memory-only indexes commit nothing.
func (li *LiveIndex) commitLocked(s *liveSnapshot) error {
	if li.dir == "" {
		return nil
	}
	m := &store.SegmentManifest{Gen: s.gen, Dims: li.pl.curve.Dims(), Order: li.pl.curve.Order()}
	for _, seg := range s.segs {
		info := store.SegmentInfo{Name: seg.name, Count: seg.records()}
		if len(seg.tomb) > 0 {
			info.Tombstones = make([]uint32, 0, len(seg.tomb))
			for id := range seg.tomb {
				info.Tombstones = append(info.Tombstones, id)
			}
			sort.Slice(info.Tombstones, func(a, b int) bool { return info.Tombstones[a] < info.Tombstones[b] })
		}
		m.Segments = append(m.Segments, info)
	}
	t0 := time.Now()
	if err := store.CommitManifestFS(li.fs, li.dir, m); err != nil {
		return err
	}
	li.met.commitSeconds.ObserveSince(t0)
	// The committed snapshot still owes a seal when its memtable sits at
	// or above the threshold (a previously failed seal): keep the retry
	// loop running for it.
	li.notePersistSuccess(s.mem.db.Len() >= li.opt.MemtableRecords)
	store.GCSegmentFilesFS(li.fs, li.dir, li.isPending)
	return nil
}

// degradedErr returns the error writes receive while degraded, wrapping
// ErrDegraded with the persistence failure that caused it.
func (li *LiveIndex) degradedErr() error {
	li.persistMu.Lock()
	cause := li.lastPersistErr
	li.persistMu.Unlock()
	if cause == nil {
		return ErrDegraded
	}
	return fmt.Errorf("%w: %v", ErrDegraded, cause)
}

// notePersistFailure records one failed persistence attempt. owed marks
// that the durable state now lags the published snapshot, which starts
// (or keeps alive) the background retry loop. Degraded mode trips at
// RetryLimit consecutive failures (a negative RetryLimit never trips
// it). Safe with or without mu held; takes only the leaf persistMu.
func (li *LiveIndex) notePersistFailure(err error, owed bool) {
	li.met.persistFailures.Inc()
	li.persistMu.Lock()
	defer li.persistMu.Unlock()
	li.lastPersistErr = err
	li.consecFails++
	li.log.Warn("persistence failure", "err", err, "consecutive", li.consecFails, "owed", owed)
	if li.opt.RetryLimit > 0 && li.consecFails >= li.opt.RetryLimit {
		if !li.degraded.Swap(true) {
			li.met.degradedTrips.Inc()
			li.met.degraded.Set(1)
			li.log.Error("degraded read-only mode tripped",
				"err", err, "consecutiveFailures", li.consecFails)
		}
	}
	if owed {
		li.dirty = true
	}
	li.spawnRetryLocked()
}

// notePersistSuccess records a successful manifest commit: the failure
// streak and degraded mode clear. stillOwed keeps the retry loop alive
// for persistence the committed snapshot still lacks (an unsealed
// over-threshold memtable).
func (li *LiveIndex) notePersistSuccess(stillOwed bool) {
	li.persistMu.Lock()
	defer li.persistMu.Unlock()
	li.lastPersistErr = nil
	li.consecFails = 0
	if li.degraded.Swap(false) {
		li.met.degraded.Set(0)
		li.log.Info("degraded mode cleared, writes accepted again", "stillOwed", stillOwed)
	}
	li.dirty = stillOwed
	li.spawnRetryLocked()
}

// spawnRetryLocked starts the retry loop when persistence is owed — or
// the index is degraded — and no loop is running. Degraded mode keeps a
// loop alive even with nothing owed (a compaction failure trips the mode
// without durable state lagging the snapshot): the loop then probes
// storage by re-committing the current manifest, and the first commit
// that lands clears the mode — otherwise a compaction-tripped degraded
// index could never heal, since writes are rejected and compactAsync has
// exhausted its attempt budget. Caller holds persistMu — which is what
// makes the wg.Add safe against Close: Close stores closed, then passes
// through persistMu before wg.Wait, so an Add here either precedes the
// Wait or never happens.
func (li *LiveIndex) spawnRetryLocked() {
	if (li.dirty || li.degraded.Load()) && !li.retrying && !li.closed.Load() {
		li.retrying = true
		li.wg.Add(1)
		go li.retryLoop()
	}
}

// backoffDelay returns the delay before retry attempt (0-based): an
// exponential schedule with jitter in [d/2, d], capped at
// liveMaxRetryBackoff.
func (li *LiveIndex) backoffDelay(attempt int) time.Duration {
	d := li.opt.RetryBackoff
	for i := 0; i < attempt && d < liveMaxRetryBackoff; i++ {
		d *= 2
	}
	if d > liveMaxRetryBackoff {
		d = liveMaxRetryBackoff
	}
	half := d / 2
	if half <= 0 {
		return d
	}
	return half + time.Duration(rand.Int63n(int64(half)+1))
}

// retryLoop re-attempts owed persistence with capped exponential backoff
// and jitter until it lands — and, while the index is degraded, keeps
// probing storage so the mode can clear — or the index closes. At most
// one loop runs at a time (the retrying flag); it is wg-tracked so Close
// waits for it.
func (li *LiveIndex) retryLoop() {
	defer li.wg.Done()
	stop := func() {
		li.persistMu.Lock()
		li.retrying = false
		li.persistMu.Unlock()
	}
	defer li.met.retryBackoff.Set(0)
	attempt := 0
	for {
		d := li.backoffDelay(attempt)
		li.met.retryBackoff.Set(d.Seconds())
		select {
		case <-li.closedCh:
			stop()
			return
		case <-time.After(d):
		}
		li.met.persistRetries.Inc()
		li.log.Info("persistence retry", "attempt", attempt+1, "waited", d)
		li.mu.Lock()
		if li.closed.Load() {
			li.mu.Unlock()
			stop()
			return
		}
		li.persistMu.Lock()
		owed := li.dirty
		li.persistMu.Unlock()
		if err := li.persistLocked(); err != nil {
			// owed preserves the dirty flag as-is across a failed
			// degraded-mode probe: re-committing an already-durable manifest
			// owes nothing, so its failure must not pretend durable state
			// now lags the snapshot.
			li.notePersistFailure(err, owed)
			attempt++
		} else {
			// Reset the backoff so draining a backlog after recovery (a
			// still-owed memtable) proceeds at the base delay, not at
			// whatever cap the outage had built up.
			attempt = 0
		}
		li.mu.Unlock()
		li.persistMu.Lock()
		if !li.dirty && !li.degraded.Load() {
			li.retrying = false
			li.persistMu.Unlock()
			return
		}
		li.persistMu.Unlock()
	}
}

// persistLocked re-establishes the owed durability for the current
// snapshot: an over-threshold memtable (a seal that previously failed)
// is sealed into a fresh segment, otherwise the current manifest is
// re-committed (covering tombstones whose commit failed, and doubling as
// the degraded-mode storage probe). Caller holds mu.
func (li *LiveIndex) persistLocked() error {
	if li.dir == "" {
		li.persistMu.Lock()
		li.dirty = false
		li.persistMu.Unlock()
		return nil
	}
	cur := li.snap.Load()
	if cur.mem.db.Len() >= li.opt.MemtableRecords {
		next := &liveSnapshot{gen: cur.gen + 1, segs: cur.segs, mem: cur.mem}
		if err := li.sealInto(next); err != nil {
			return err
		}
		li.publish(next)
		if len(next.segs) >= li.opt.CompactSegments {
			li.compactAsync()
		}
		return nil
	}
	if err := li.commitLocked(cur); err != nil {
		return err
	}
	// A compaction abandoned during the outage (compactAsync gives up
	// after its attempt budget) is owed again now that a commit landed:
	// re-trigger it while the segment count still warrants one.
	if len(cur.segs) >= li.opt.CompactSegments {
		li.compactAsync()
	}
	return nil
}
