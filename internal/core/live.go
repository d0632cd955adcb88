package core

// LiveIndex is the always-on variant of the S³ index: an LSM-style
// segmented structure that ingests new reference material and serves
// statistical/range/k-NN queries at the same time, the continuously
// growing TV-archive scenario the paper's deployment implies but its
// static structure cannot serve.
//
// The design exploits the same property the sharded engine does: a plan
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
// (store.ColdFile / store.BlockCache). Because refinement visits records
// through the store.RecordSource seam, results are byte-identical either
// way; only the I/O changes. This is what lets the index serve an
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
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
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
	// attempt n waits about RetryBackoff<<n (with jitter), capped at
	// MaxRetryBackoff. 0 selects DefaultLiveRetryBackoff.
	RetryBackoff time.Duration
	// MaxRetryBackoff caps the exponential backoff. 0 selects
	// DefaultLiveMaxRetryBackoff.
	MaxRetryBackoff time.Duration
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
	// PlanCacheEntries bounds the plan cache; 0 selects
	// DefaultPlanCacheEntries.
	PlanCacheEntries int
	// AutoTune enables online tuning of the threshold-search schedule
	// from observed plan/refine costs. The partition depth stays pinned
	// regardless of AutoTune.TuneDepth: segment sketches are built at the
	// shared depth and plans at any other depth could not consult them.
	AutoTune AutoTuneOptions
}

// DefaultLiveMemtableRecords is the default seal threshold.
const DefaultLiveMemtableRecords = 4096

// DefaultLiveCompactSegments is the default compaction trigger.
const DefaultLiveCompactSegments = 4

// DefaultLiveRetryBackoff is the default base delay between persistence
// retry attempts.
const DefaultLiveRetryBackoff = 50 * time.Millisecond

// DefaultLiveMaxRetryBackoff is the default cap on the exponential
// persistence retry backoff.
const DefaultLiveMaxRetryBackoff = 5 * time.Second

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
	if o.MaxRetryBackoff <= 0 {
		o.MaxRetryBackoff = DefaultLiveMaxRetryBackoff
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

// maskFn returns the tombstone predicate refinement filters with, nil
// when the segment has no tombstones.
func (s *liveSegment) maskFn() func(uint32) bool {
	if len(s.tomb) == 0 {
		return nil
	}
	tomb := s.tomb
	return func(id uint32) bool {
		_, dead := tomb[id]
		return dead
	}
}

// segment returns the executor's view of the segment: the seam
// refinement visits its records through, its mask and its sketch.
func (s *liveSegment) segment() segment {
	seg := segment{src: s.db, masked: s.maskFn(), sketch: s.sketch, name: s.name}
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
}

// LiveIndex is a segmented S³ index supporting concurrent ingest and
// query with background compaction. All query methods are safe for
// concurrent use with each other and with Ingest/DeleteVideo/Compact.
// The embedded executor carries the query side: the planner at the
// shared depth, the plan cache (keyed on the snapshot generation), the
// tuner (which never moves the depth) and the query metrics.
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
	if opt.Depth > curve.IndexBits() {
		return nil, fmt.Errorf("core: depth %d exceeds index bits %d", opt.Depth, curve.IndexBits())
	}
	met := newLiveMetrics()
	li := &LiveIndex{opt: opt, dir: dir,
		fs: opt.FS, closedCh: make(chan struct{}), pending: make(map[string]struct{}),
		met: met, coldCtr: store.NewColdCounters(), log: opt.Logger}
	li.executor = executor{pl: &planner{curve: curve, depth: opt.Depth}, workers: opt.Workers,
		qmet: newQueryMetrics(), querySegments: met.querySegments,
		sketchConsults: met.sketchConsults, segmentsSkipped: met.segmentsSkipped}
	if opt.PlanCache {
		// The record set churns, so the cache buckets keys with value-only
		// uniform cells: assignments stay comparable across snapshots.
		qz, err := store.UniformQuantizer(curve.Dims(), store.DefaultCodecBits)
		if err != nil {
			return nil, err
		}
		li.cache = newPlanCache(qz, opt.PlanCacheEntries)
	}
	if opt.AutoTune.Enabled {
		at := opt.AutoTune
		at.TuneDepth = false // sketches are built at the shared depth
		li.tuner = newAutoTuner(at, li.pl.defaultTuning(), opt.Depth, opt.Depth)
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
	li.snap.Store(&liveSnapshot{gen: gen, segs: segs, mem: &liveSegment{db: empty}})
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
	li.snap.Store(next)
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
	li.snap.Store(next)
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
	li.snap.Store(next)
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
// MaxRetryBackoff.
func (li *LiveIndex) backoffDelay(attempt int) time.Duration {
	d := li.opt.RetryBackoff
	for i := 0; i < attempt && d < li.opt.MaxRetryBackoff; i++ {
		d *= 2
	}
	if d > li.opt.MaxRetryBackoff {
		d = li.opt.MaxRetryBackoff
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
		li.snap.Store(next)
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
	li.snap.Store(next)
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
			li.snap.Store(next)
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

// view exposes the snapshot to the executor: every sealed segment, oldest
// first, then the memtable when it holds records.
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
	return li.searchStat(ctx, li.snap.Load().view(), q, sq)
}

// SearchRange executes an ε-range query against the current snapshot.
func (li *LiveIndex) SearchRange(ctx context.Context, q []byte, eps float64) ([]Match, Plan, error) {
	li.queryGate.RLock()
	defer li.queryGate.RUnlock()
	return li.searchRange(ctx, li.snap.Load().view(), q, eps)
}

// SearchKNN answers a k-NN query against the current snapshot, skipping
// tombstoned records (see executor.searchKNN for the merge order).
func (li *LiveIndex) SearchKNN(ctx context.Context, q []byte, k, maxLeaves int) ([]Match, KNNStats, error) {
	li.queryGate.RLock()
	defer li.queryGate.RUnlock()
	return li.searchKNN(ctx, li.snap.Load().view(), q, k, maxLeaves)
}

// SearchStatBatch pipelines many statistical queries across the worker
// pool, all against one snapshot. results[i] corresponds to queries[i].
func (li *LiveIndex) SearchStatBatch(ctx context.Context, queries [][]byte, sq StatQuery) ([][]Match, error) {
	li.queryGate.RLock()
	defer li.queryGate.RUnlock()
	return li.searchStatBatch(ctx, li.snap.Load().view(), queries, sq)
}
