package core

// LiveIndex is the always-on variant of the S³ index: an LSM-style
// segmented structure that ingests new reference material and serves
// statistical/range/k-NN queries at the same time, the continuously
// growing TV-archive scenario the paper's deployment implies but its
// static structure cannot serve.
//
// The design exploits the property the paper's filtering step has: a plan
// (statistical or geometric) depends only on the curve geometry and the
// partition depth, never on the record data. One plan per query is
// therefore valid against every segment, and refinement fans out across
// an atomic snapshot of immutable curve-ordered segments:
//
//   - a small *memtable* segment absorbs Ingest batches (rebuilt by a
//     linear canonical merge — cheap while it stays below the seal
//     threshold);
//   - sealed segments are immutable; a background compactor folds them
//     into one base segment with store.Merge, applying tombstones;
//   - readers load the current snapshot with one atomic pointer read and
//     never block writers; writers publish a fresh snapshot (strictly
//     increasing generation) under a single writer mutex.
//
// Deletes are per-segment tombstone masks by video identifier: a delete
// masks the id out of every segment existing at that moment (the
// memtable, being mutable-by-replacement, is filtered eagerly), so a
// later re-ingest of the same id lands in younger segments and survives.
// Compaction applies the masks physically and drops them.
//
// Because store.Build and store.Merge share one canonical total record
// order (Hilbert key, then ID/TC/X/Y), the concatenation of a snapshot's
// segments holds exactly the records — in exactly the order — of one
// monolithic Build over the surviving records. Query results merged
// canonically across segments are therefore identical to the offline
// rebuild's, which is the property live_quick_test.go checks.
//
// With a backing directory, every seal, delete and compaction commits a
// versioned segment manifest (store.CommitManifest): segment files are
// written and fsynced first under never-reused names, then a
// MANIFEST-<gen> rename publishes the snapshot atomically. Reopening
// recovers the newest manifest that decodes and whose segments all load
// — a crash at any byte of a commit yields the previous committed
// snapshot, never a partial one. Segment files superseded by a
// compaction are not deleted at its commit: the retained predecessor
// manifest (the recovery fallback) still references them, so they are
// garbage-collected at a later commit once pruning drops that manifest.
// Unsealed memtable records are volatile (there is no WAL); Flush or
// Close seals them.
//
// With ColdRecords set (and a directory), the index tiers its segments:
// the memtable and young (small) segments stay resident, while sealed or
// compacted segments at or above the threshold serve *cold* — only the
// file header and section table stay in memory, and refinement reads
// record blocks from disk through a fixed-budget shared block cache
// (store.ColdFile / store.BlockCache). Because refinement visits row
// spans through the store.RecordSource seam, a cold block and a resident
// segment are the same store.Chunk rows to it, and results are
// byte-identical either way; only the I/O changes. This is what lets the index serve an
// archive larger than RAM: the big compacted base is cold, the write
// path stays resident.
//
// Persistence failures do not lose accepted writes: a failed seal or
// manifest commit leaves the records query-visible in memory, records
// the error, and a background loop retries the owed persistence with
// capped exponential backoff and jitter until it lands or the index
// closes. After RetryLimit consecutive failures the index enters
// degraded read-only mode — queries keep serving the last published
// snapshot but Ingest and DeleteVideo return ErrDegraded — and any
// subsequent successful commit clears it; while degraded, the retry loop
// stays alive even with nothing owed, probing storage by re-committing
// the current manifest so the mode clears (and an abandoned compaction
// is re-triggered) as soon as the fault does. All storage I/O goes through
// a pluggable store.FS (LiveOptions.FS), which is how the fault-
// injection harness drives every one of these paths deterministically.

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"s3cbcd/internal/hilbert"
	"s3cbcd/internal/obs"
	"s3cbcd/internal/store"
)

// ErrClosed is returned by operations on a closed LiveIndex.
var ErrClosed = errors.New("core: live index is closed")

// ErrDegraded is returned by Ingest and DeleteVideo while the index is
// in degraded read-only mode: RetryLimit consecutive persistence
// failures have accumulated and accepting more writes would only grow
// the volatile backlog. Queries keep serving; the background retry loop
// keeps attempting persistence, and the first successful commit clears
// the mode. Errors returned alongside wrap this sentinel (errors.Is).
var ErrDegraded = errors.New("core: live index is degraded (persistence failing), writes rejected")

// LiveOptions tunes a LiveIndex.
type LiveOptions struct {
	// Depth is the partition depth p shared by every segment (a plan is
	// computed once and refined everywhere, so all segments must agree).
	// 0 selects DefaultDepth for a million-record archive.
	Depth int
	// Workers bounds batch query fan-out. 0 selects GOMAXPROCS.
	Workers int
	// MemtableRecords is the memtable size at which Ingest seals it into
	// an immutable segment. 0 selects 4096.
	MemtableRecords int
	// CompactSegments is the sealed-segment count that triggers a
	// background compaction. 0 selects 4.
	CompactSegments int
	// SectionBits is the section-table granularity of written segment
	// files. 0 selects 10 (clamped to the curve's index bits).
	SectionBits int
	// FS is the filesystem all segment and manifest I/O goes through.
	// nil selects the operating system (store.OSFS); tests inject
	// faultfs.FS here.
	FS store.FS
	// RetryBackoff is the base delay of the persistence retry schedule;
	// attempt n waits about RetryBackoff<<n (with jitter), capped at 5s.
	// 0 selects DefaultLiveRetryBackoff.
	RetryBackoff time.Duration
	// RetryLimit is the consecutive-persistence-failure count at which
	// the index enters degraded read-only mode, and the attempt budget of
	// one background compaction before it gives up until re-triggered.
	// 0 selects DefaultLiveRetryLimit; negative disables degraded mode
	// (writes are accepted no matter how long persistence has failed).
	RetryLimit int
	// Logger receives structured events for the write path's lifecycle:
	// persistence failures, retry attempts, degraded-mode transitions and
	// compactions. nil discards them (obs.NopLogger).
	Logger *slog.Logger
	// ColdRecords enables tiered serving: a sealed or compacted segment
	// holding at least this many records is served cold — records read
	// from its file through the block cache instead of staying resident.
	// 0 disables tiering (every segment resident); requires a directory.
	ColdRecords int
	// Cache is the block cache cold segments read through, shared across
	// segments (and, if the caller wants, across indexes). nil with
	// ColdRecords > 0 selects a private cache of DefaultLiveCacheBytes.
	Cache *store.BlockCache
	// Sketch embeds an occupancy sketch into every sealed segment (file
	// format v4) and consults it before refinement: a plan whose block set
	// provably misses a segment skips it entirely — no block cache
	// traffic, no record visit — and cold reads skip individual blocks
	// likewise. Skip decisions are one-sided (Bloom filters have no false
	// negatives), so answers are byte-identical with or without.
	Sketch bool
	// ColdCodec embeds the quantized record codec into segments written
	// for the cold tier: statistical refinement reads fingerprint-free
	// lean rows, and geometric refinement pre-filters candidates on packed
	// per-component codes, falling back to exact bytes only for survivors.
	// Answers stay byte-identical (the exact distance check remains).
	ColdCodec bool
	// PlanCache enables the bounded statistical-plan cache: repeated or
	// identical queries against an unchanged snapshot reuse their plan.
	// The snapshot generation is part of the cache key, so any ingest,
	// delete or compaction invalidates by construction and answers stay
	// byte-identical with the cache on or off.
	PlanCache bool
}

// DefaultLiveMemtableRecords is the default seal threshold.
const DefaultLiveMemtableRecords = 4096

// DefaultLiveCompactSegments is the default compaction trigger.
const DefaultLiveCompactSegments = 4

// DefaultLiveRetryBackoff is the default base delay between persistence
// retry attempts.
const DefaultLiveRetryBackoff = 50 * time.Millisecond

// liveMaxRetryBackoff caps the exponential persistence retry backoff.
const liveMaxRetryBackoff = 5 * time.Second

// DefaultLiveRetryLimit is the default consecutive-failure count that
// trips degraded mode (and the per-trigger attempt budget of a
// background compaction).
const DefaultLiveRetryLimit = 5

// DefaultLiveCacheBytes is the block cache budget a tiered index gets
// when LiveOptions.Cache is nil.
const DefaultLiveCacheBytes = 64 << 20

func (o LiveOptions) withDefaults(curve *hilbert.Curve) LiveOptions {
	if o.Depth <= 0 {
		o.Depth = DefaultDepth(curve, 1<<20)
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.MemtableRecords <= 0 {
		o.MemtableRecords = DefaultLiveMemtableRecords
	}
	if o.CompactSegments < 2 {
		o.CompactSegments = DefaultLiveCompactSegments
	}
	if o.SectionBits <= 0 {
		o.SectionBits = 10
	}
	if o.SectionBits > curve.IndexBits() {
		o.SectionBits = curve.IndexBits()
	}
	if o.FS == nil {
		o.FS = store.OSFS
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = DefaultLiveRetryBackoff
	}
	if o.RetryLimit == 0 {
		o.RetryLimit = DefaultLiveRetryLimit
	}
	if o.Logger == nil {
		o.Logger = obs.NopLogger()
	}
	if o.ColdRecords > 0 && o.Cache == nil {
		o.Cache = store.NewBlockCache(DefaultLiveCacheBytes)
	}
	return o
}

// liveSegment is one immutable piece of a snapshot: a curve-ordered
// record set plus the tombstone mask hiding deleted videos. Exactly one
// of db (resident) and cold (disk-backed through the block cache) is
// set. Segments are never mutated — tombstone growth replaces the
// struct (copy-on-write), so a loaded snapshot stays coherent forever.
type liveSegment struct {
	db   *store.DB           // resident records; nil when cold
	cold *store.ColdFile     // cold-tier records; nil when resident
	name string              // manifest file name; "" for the memtable
	tomb map[uint32]struct{} // masked video ids; nil or empty for none
	live int                 // records not masked
	// sketch is the segment's occupancy summary, consulted before
	// refinement to skip the whole segment; nil when sketches are off (or
	// for the mutable memtable, which is never summarized).
	sketch *store.Sketch
}

func (s *liveSegment) masked(id uint32) bool {
	_, dead := s.tomb[id]
	return dead
}

// segment returns the executor's view of the segment: the seam
// refinement visits its records through, its mask (nil when nothing is
// tombstoned) and its sketch.
func (s *liveSegment) segment() segment {
	seg := segment{src: s.db, sketch: s.sketch, name: s.name}
	if len(s.tomb) > 0 {
		seg.masked = s.masked
	}
	if s.cold != nil {
		seg.src = s.cold
	}
	return seg
}

// records returns the segment's stored record count (masked included).
func (s *liveSegment) records() int {
	if s.cold != nil {
		return s.cold.Len()
	}
	return s.db.Len()
}

// countID counts the segment's stored records of one video identifier.
// Cold segments scan their file (bypassing the cache).
func (s *liveSegment) countID(id uint32) (int, error) {
	if s.cold != nil {
		return s.cold.CountID(id)
	}
	return s.db.CountID(id), nil
}

// sameData reports whether two segment wrappers carry the same record
// set (tombstone growth replaces the wrapper but keeps the data).
func (s *liveSegment) sameData(o *liveSegment) bool {
	return s.db == o.db && s.cold == o.cold
}

// withTombstone returns a copy of the segment with id masked; n is the
// segment's stored count of that id (precomputed so cold segments scan
// once).
func (s *liveSegment) withTombstone(id uint32, n int) *liveSegment {
	tomb := make(map[uint32]struct{}, len(s.tomb)+1)
	for k := range s.tomb {
		tomb[k] = struct{}{}
	}
	tomb[id] = struct{}{}
	return &liveSegment{db: s.db, cold: s.cold, name: s.name, tomb: tomb,
		live: s.live - n, sketch: s.sketch}
}

// compacted returns the segment's surviving records as an in-memory
// database; a cold segment's records are bulk-loaded (cache bypassed).
func (s *liveSegment) compacted() (*store.DB, error) {
	db := s.db
	if s.cold != nil {
		var err error
		if db, err = s.cold.LoadAll(); err != nil {
			return nil, err
		}
	}
	if len(s.tomb) == 0 {
		return db, nil
	}
	return store.Filter(db, func(id, _ uint32) bool { return !s.masked(id) }), nil
}

// liveSnapshot is one immutable view of the index: sealed segments
// (oldest first) plus the memtable. Readers obtain it with a single
// atomic load; writers publish a successor with a strictly larger
// generation.
type liveSnapshot struct {
	gen  uint64
	segs []*liveSegment
	mem  *liveSegment
	// v is the executor's view of the snapshot, built once by publish so
	// a query allocates nothing to see it.
	v view
}

// LiveIndex is a segmented S³ index supporting concurrent ingest and
// query with background compaction. All query methods are safe for
// concurrent use with each other and with Ingest/DeleteVideo/Compact.
// The embedded executor carries the query side: the planner at the
// shared depth, the plan cache (keyed on the snapshot generation) and
// the query metrics.
type LiveIndex struct {
	executor
	opt LiveOptions
	dir string // "" = memory-only
	fs  store.FS

	snap atomic.Pointer[liveSnapshot]
	// mu serializes writers (Ingest, DeleteVideo, Flush, Close and the
	// commit phase of a compaction). Readers never take it.
	mu sync.Mutex
	// queryGate tracks in-flight queries (read-locked for a query's
	// duration). Writers never take it except to quiesce readers before
	// closing retired cold files — a compaction's superseded inputs, or
	// every cold file at Close — so queries mid-refine never see their
	// segment's file close under them. It is a leaf lock: never acquired
	// while holding mu.
	queryGate sync.RWMutex
	// compactMu singleflights compaction; the merge and segment-write
	// phases run under it alone, off the writer lock.
	compactMu sync.Mutex
	wg        sync.WaitGroup
	closed    atomic.Bool
	// closedCh is closed by Close so backoff sleeps in background retry
	// loops end immediately instead of running out their timers.
	closedCh chan struct{}

	// persistMu guards the persistence-failure state below. It is a leaf
	// lock: taken with or without mu, never the other way around.
	persistMu sync.Mutex
	// lastPersistErr is the most recent persistence failure (nil after a
	// successful commit).
	lastPersistErr error
	// consecFails counts consecutive failed persistence attempts;
	// reaching RetryLimit trips degraded mode.
	consecFails int
	// dirty records that the durable state lags the published snapshot
	// (a seal or commit is owed); the retry loop runs while it is set.
	dirty bool
	// retrying records that a retry loop goroutine is active.
	retrying bool

	degraded atomic.Bool

	// segSeq allocates never-reused segment file names; seeded at open
	// past every name on disk.
	segSeq atomic.Uint64
	// pendingMu guards pending: segment files written (or being written)
	// ahead of their commit, which the deferred GC must not collect.
	pendingMu sync.Mutex
	pending   map[string]struct{}

	// met instruments the write path and segment visits (lifetime
	// counters, latency histograms, retry/degraded state); log receives
	// the write path's lifecycle events. Exported via RegisterMetrics.
	// coldCtr is shared by every cold file for sketch-skip/codec
	// accounting.
	met     liveMetrics
	coldCtr *store.ColdCounters
	log     *slog.Logger
}

// OpenLiveIndex opens (or creates) a live index over the given curve.
// With dir == "" the index is memory-only; otherwise dir holds the
// segment files and manifest, and the index reopens to its last
// committed snapshot.
func OpenLiveIndex(curve *hilbert.Curve, dir string, opt LiveOptions) (*LiveIndex, error) {
	opt = opt.withDefaults(curve)
	pl, err := NewPlanner(curve, opt.Depth)
	if err != nil {
		return nil, err
	}
	met := newLiveMetrics()
	li := &LiveIndex{opt: opt, dir: dir,
		fs: opt.FS, closedCh: make(chan struct{}), pending: make(map[string]struct{}),
		met: met, coldCtr: store.NewColdCounters(), log: opt.Logger}
	li.executor = executor{pl: pl, workers: opt.Workers,
		qmet: newQueryMetrics(), querySegments: met.querySegments,
		sketchConsults: met.sketchConsults, segmentsSkipped: met.segmentsSkipped}
	if opt.PlanCache {
		li.cache = newPlanCache(DefaultPlanCacheEntries)
	}
	var (
		segs []*liveSegment
		gen  uint64
	)
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		closeColds := func(ss []*liveSegment) {
			for _, s := range ss {
				if s.cold != nil {
					s.cold.Close()
				}
			}
		}
		m, err := store.RecoverManifestFS(li.fs, dir, func(m *store.SegmentManifest) (reterr error) {
			if m.Dims != curve.Dims() || m.Order != curve.Order() {
				return fmt.Errorf("manifest geometry D=%d K=%d, index wants D=%d K=%d",
					m.Dims, m.Order, curve.Dims(), curve.Order())
			}
			loaded := make([]*liveSegment, 0, len(m.Segments))
			// A rejected manifest must not leak the descriptors of cold
			// segments it managed to open before the validation failure.
			defer func() {
				if reterr != nil {
					closeColds(loaded)
				}
			}()
			for _, si := range m.Segments {
				seg := &liveSegment{name: si.Name}
				var segCurve *hilbert.Curve
				if li.coldEligible(si.Count) {
					cf, err := li.openCold(si.Name)
					if err != nil {
						return err
					}
					seg.cold, segCurve = cf, cf.Curve()
					// The file's embedded sketch (nil for pre-v4 segments:
					// they serve unsketched until the next compaction).
					seg.sketch = cf.Sketch()
				} else {
					db, err := store.ReadFileFS(li.fs, filepath.Join(dir, si.Name))
					if err != nil {
						return err
					}
					seg.db, segCurve = db, db.Curve()
					if opt.Sketch {
						// Resident segments rebuild the summary in memory —
						// identical to the embedded one by determinism, and it
						// covers segments written before sketches existed.
						seg.sketch = db.BuildSketch(opt.Depth)
					}
				}
				loaded = append(loaded, seg)
				if seg.records() != si.Count {
					return fmt.Errorf("segment %s holds %d records, manifest says %d", si.Name, seg.records(), si.Count)
				}
				if segCurve.Dims() != curve.Dims() || segCurve.Order() != curve.Order() {
					return fmt.Errorf("segment %s geometry disagrees with manifest", si.Name)
				}
				if len(si.Tombstones) > 0 {
					seg.tomb = make(map[uint32]struct{}, len(si.Tombstones))
					for _, id := range si.Tombstones {
						seg.tomb[id] = struct{}{}
					}
				}
				seg.live = seg.records()
				for id := range seg.tomb {
					n, err := seg.countID(id)
					if err != nil {
						return err
					}
					seg.live -= n
				}
			}
			segs = loaded
			return nil
		})
		if err != nil {
			closeColds(segs)
			return nil, err
		}
		if m != nil {
			gen = m.Gen
		}
		// Seed the name allocator past every segment file ever written —
		// historical names were derived from generations, and orphans from
		// a crashed, uncommitted write may carry a higher sequence than any
		// manifest records — then collect files no retained manifest
		// references (crash leftovers and long-superseded segments).
		seq := store.MaxSegmentFileSeqFS(li.fs, dir)
		if gen > seq {
			seq = gen
		}
		li.segSeq.Store(seq)
		store.GCSegmentFilesFS(li.fs, dir, nil)
	}
	empty, err := store.Build(curve, nil)
	if err != nil {
		return nil, err
	}
	li.publish(&liveSnapshot{gen: gen, segs: segs, mem: &liveSegment{db: empty}})
	li.log.Info("live index opened", "dir", dir, "gen", gen, "segments", len(segs))
	return li, nil
}

// nextSegName allocates a never-reused file name for a freshly sealed or
// compacted segment.
func (li *LiveIndex) nextSegName() string {
	return store.SegmentFileName(li.segSeq.Add(1))
}

// coldEligible reports whether a sealed segment of n records serves from
// the cold tier.
func (li *LiveIndex) coldEligible(n int) bool {
	return li.dir != "" && li.opt.ColdRecords > 0 && n >= li.opt.ColdRecords
}

// openCold opens a committed segment file for cold serving through the
// shared cache, with sketch-skipping and the codec as configured.
func (li *LiveIndex) openCold(name string) (*store.ColdFile, error) {
	return store.OpenColdOptsFS(li.fs, filepath.Join(li.dir, name), store.ColdOptions{
		Cache:    li.opt.Cache,
		Sketch:   li.opt.Sketch,
		Codec:    li.opt.ColdCodec,
		Counters: li.coldCtr,
	})
}

// segWriteOptions returns the write options of a segment file holding n
// records: the sketch rides every sealed segment when enabled; the codec
// (two extra record areas) is only worth its bytes on segments that will
// serve cold.
func (li *LiveIndex) segWriteOptions(n int) store.WriteOptions {
	return store.WriteOptions{
		SectionBits: li.opt.SectionBits,
		Sketch:      li.opt.Sketch,
		SketchBits:  li.opt.Depth,
		Codec:       li.opt.ColdCodec && li.coldEligible(n),
	}
}

// buildSketch summarizes a freshly sealed or compacted segment when
// sketches are on (matching the section the file just got, and serving
// memory-only indexes too).
func (li *LiveIndex) buildSketch(db *store.DB) *store.Sketch {
	if !li.opt.Sketch {
		return nil
	}
	return db.BuildSketch(li.opt.Depth)
}

// protectPending marks a segment file as written ahead of its commit so
// the deferred GC skips it; the returned release drops the mark (after
// the commit that references it, or after cleanup of an aborted write).
func (li *LiveIndex) protectPending(name string) (release func()) {
	li.pendingMu.Lock()
	li.pending[name] = struct{}{}
	li.pendingMu.Unlock()
	return func() {
		li.pendingMu.Lock()
		delete(li.pending, name)
		li.pendingMu.Unlock()
	}
}

// isPending reports whether a segment file awaits its commit.
func (li *LiveIndex) isPending(name string) bool {
	li.pendingMu.Lock()
	_, ok := li.pending[name]
	li.pendingMu.Unlock()
	return ok
}

// Gen returns the current snapshot generation.
func (li *LiveIndex) Gen() uint64 { return li.snap.Load().gen }

// LiveStats is a point-in-time report of the index's shape.
type LiveStats struct {
	// Gen is the snapshot generation (strictly increasing per published
	// snapshot).
	Gen uint64
	// Segments is the number of sealed immutable segments.
	Segments int
	// SegmentRecords counts records stored in sealed segments, including
	// tombstone-masked ones awaiting compaction.
	SegmentRecords int
	// ColdSegments counts sealed segments serving from the cold tier, and
	// ColdRecords the records they hold (a subset of SegmentRecords).
	ColdSegments, ColdRecords int
	// Cache reports the block cache cold segments read through; zero when
	// tiering is disabled.
	Cache store.CacheStats
	// SketchSegments counts sealed segments carrying an occupancy sketch,
	// and SketchBytes their summed encoded size.
	SketchSegments, SketchBytes int
	// CodecSegments counts cold segments serving the quantized codec.
	CodecSegments int
	// SketchConsults and SegmentsSkipped are lifetime counters: sketch
	// consultations before refinement, and segments those consultations
	// proved the plan misses.
	SketchConsults, SegmentsSkipped int64
	// SkippedBlocks, QuantizedRejects, FallbackReads and BytesSaved are
	// the cold read reducer's lifetime counters: blocks the sketch skipped
	// inside cold files, candidates the quantized bound rejected, exact
	// single-record verification reads, and on-disk bytes not read
	// compared to the exact block path.
	SkippedBlocks, QuantizedRejects, FallbackReads, BytesSaved int64
	// MemtableRecords counts records in the mutable memtable.
	MemtableRecords int
	// LiveRecords counts surviving (query-visible) records.
	LiveRecords int
	// TombstonedIDs counts (segment, video id) tombstone entries awaiting
	// compaction.
	TombstonedIDs int
	// Ingested, Deletes and Compactions are lifetime operation counters.
	Ingested, Deletes, Compactions int64
	// Degraded reports degraded read-only mode: persistence has failed
	// RetryLimit consecutive times and writes are being rejected.
	Degraded bool
	// Dirty reports that the durable state lags the published snapshot
	// and the background retry loop is working to catch it up.
	Dirty bool
	// LastPersistErr is the most recent persistence failure ("" after a
	// successful commit).
	LastPersistErr string
	// PersistFailures and PersistRetries are lifetime counters of failed
	// persistence attempts and of backoff-scheduled retry attempts.
	PersistFailures, PersistRetries int64
	// ConsecutiveFailures counts persistence failures since the last
	// successful commit (degraded mode trips at RetryLimit).
	ConsecutiveFailures int
}

// Stats reports the current snapshot's shape and lifetime counters.
func (li *LiveIndex) Stats() LiveStats {
	snap := li.snap.Load()
	st := LiveStats{
		Gen:             snap.gen,
		Segments:        len(snap.segs),
		MemtableRecords: snap.mem.db.Len(),
		LiveRecords:     snap.mem.db.Len(),
		Ingested:        li.met.ingested.Value(),
		Deletes:         li.met.deletes.Value(),
		Compactions:     li.met.compactions.Value(),
		Degraded:        li.degraded.Load(),
		PersistFailures: li.met.persistFailures.Value(),
		PersistRetries:  li.met.persistRetries.Value(),
	}
	li.persistMu.Lock()
	st.Dirty = li.dirty
	st.ConsecutiveFailures = li.consecFails
	if li.lastPersistErr != nil {
		st.LastPersistErr = li.lastPersistErr.Error()
	}
	li.persistMu.Unlock()
	for _, s := range snap.segs {
		st.SegmentRecords += s.records()
		st.LiveRecords += s.live
		st.TombstonedIDs += len(s.tomb)
		if s.cold != nil {
			st.ColdSegments++
			st.ColdRecords += s.cold.Len()
			if s.cold.Codec() {
				st.CodecSegments++
			}
		}
		if s.sketch != nil {
			st.SketchSegments++
			st.SketchBytes += s.sketch.EncodedSize()
		}
	}
	if li.opt.Cache != nil {
		st.Cache = li.opt.Cache.Stats()
	}
	st.SketchConsults = li.met.sketchConsults.Value()
	st.SegmentsSkipped = li.met.segmentsSkipped.Value()
	st.SkippedBlocks = li.coldCtr.SkippedBlocks.Value()
	st.QuantizedRejects = li.coldCtr.QuantizedRejects.Value()
	st.FallbackReads = li.coldCtr.FallbackReads.Value()
	st.BytesSaved = li.coldCtr.BytesSaved.Value()
	return st
}

// Len returns the number of query-visible records.
func (li *LiveIndex) Len() int { return li.Stats().LiveRecords }

// Close seals the memtable (when durable), rejects further writes,
// waits for any background compaction to finish and closes cold segment
// files once in-flight queries drain. Queries against already-loaded
// snapshots remain valid for resident segments; a query visiting a cold
// segment after Close returns an error.
func (li *LiveIndex) Close() error {
	li.mu.Lock()
	if li.closed.Load() {
		li.mu.Unlock()
		return nil
	}
	var err error
	if cur := li.snap.Load(); cur.mem.db.Len() > 0 && li.dir != "" {
		next := &liveSnapshot{gen: cur.gen + 1, segs: cur.segs, mem: cur.mem}
		if err = li.sealInto(next); err == nil {
			li.publish(next)
		} else {
			li.notePersistFailure(err, false)
		}
	}
	li.closed.Store(true)
	close(li.closedCh)
	li.mu.Unlock()
	// Passing through persistMu after storing closed orders any in-flight
	// retry-loop spawn's wg.Add before the Wait (see spawnRetryLocked).
	li.persistMu.Lock()
	li.persistMu.Unlock()
	li.wg.Wait()
	// Quiesce queries, then release the cold tier's descriptors and
	// cached blocks. Compactions have drained (wg), so the published
	// snapshot's cold files are exactly the open ones.
	li.queryGate.Lock()
	for _, s := range li.snap.Load().segs {
		if s.cold != nil {
			s.cold.Close()
		}
	}
	li.queryGate.Unlock()
	return err
}

// publish makes next the snapshot queries see, building its view first.
// Every writer publishes through here, under li.mu (or before the index
// is shared).
func (li *LiveIndex) publish(next *liveSnapshot) {
	next.v = next.view()
	li.snap.Store(next)
}

// view builds the snapshot's view for the executor: every sealed
// segment, oldest first, then the memtable when it holds records.
func (s *liveSnapshot) view() view {
	v := view{gen: s.gen, segs: make([]segment, 0, len(s.segs)+1)}
	for _, seg := range s.segs {
		v.segs = append(v.segs, seg.segment())
	}
	if s.mem.db.Len() > 0 {
		v.segs = append(v.segs, s.mem.segment())
	}
	return v
}

// Queries are the executor's (executor.go) run against the current
// snapshot. Each holds queryGate for its duration, so a cold file it
// may be reading is never closed under it, and loads the snapshot once:
// a consistent view even while ingest continues — for a batch, one view
// for every query in it. Pos fields of the matches are segment-local.

// SearchStat executes a statistical query against the current snapshot:
// one plan against the shared curve, refined across every segment, with
// results merged in canonical order.
func (li *LiveIndex) SearchStat(ctx context.Context, q []byte, sq StatQuery) ([]Match, Plan, error) {
	li.queryGate.RLock()
	defer li.queryGate.RUnlock()
	return li.searchStat(ctx, li.snap.Load().v, q, sq)
}

// SearchRange executes an ε-range query against the current snapshot.
func (li *LiveIndex) SearchRange(ctx context.Context, q []byte, eps float64) ([]Match, Plan, error) {
	li.queryGate.RLock()
	defer li.queryGate.RUnlock()
	return li.searchRange(ctx, li.snap.Load().v, q, eps)
}

// SearchKNN answers a k-NN query against the current snapshot, skipping
// tombstoned records (see executor.searchKNN for the merge order).
func (li *LiveIndex) SearchKNN(ctx context.Context, q []byte, k, maxLeaves int) ([]Match, KNNStats, error) {
	li.queryGate.RLock()
	defer li.queryGate.RUnlock()
	return li.searchKNN(ctx, li.snap.Load().v, q, k, maxLeaves)
}

// SearchStatBatch pipelines many statistical queries across the worker
// pool, all against one snapshot. results[i] corresponds to queries[i].
func (li *LiveIndex) SearchStatBatch(ctx context.Context, queries [][]byte, sq StatQuery) ([][]Match, error) {
	li.queryGate.RLock()
	defer li.queryGate.RUnlock()
	return li.searchStatBatch(ctx, li.snap.Load().v, queries, sq)
}

// RefineStat answers a statistical query against the current snapshot
// from block runs planned elsewhere at this index's curve and depth,
// without planning (executor.refineStat).
func (li *LiveIndex) RefineStat(ctx context.Context, q []byte, sq StatQuery, runs []hilbert.Run) ([]Match, Plan, error) {
	li.queryGate.RLock()
	defer li.queryGate.RUnlock()
	return li.refineStat(ctx, li.snap.Load().v, q, sq, runs)
}
