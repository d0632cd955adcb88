package store

import (
	"fmt"
	"sync"

	"s3cbcd/internal/bitkey"
	"s3cbcd/internal/hilbert"
	"s3cbcd/internal/obs"
)

// DefaultColdBlockRecords is the default target block size of a cold
// file: the finest curve-section granularity whose largest block stays
// at or below this many records.
const DefaultColdBlockRecords = 4096

// ColdFile serves a database file's records directly from disk: the
// pseudo-disk strategy of Section IV-B promoted from a batch experiment
// (core.DiskIndex) into the serving read path. Only the header and
// section table are resident; record reads are pread-style block loads
// aligned to curve-section boundaries, cached in a shared BlockCache.
// Because curve sections are key-aligned, a block load is reusable by
// every query whose plan touches that stretch of the curve — the
// cross-query amortization of eq. (5), supplied by the cache instead of
// batch scheduling.
//
// A ColdFile is safe for concurrent VisitIntervals calls (File.ReadAt
// is). Close drops the file's cached blocks and releases the descriptor
// once in-flight visits drain; visits after Close fail with an error.
type ColdFile struct {
	fl    *File
	cache *BlockCache
	id    uint64
	bits  int  // blocks are curve sections of a 2^bits partition
	shift uint // curve index bits - bits

	sketch *Sketch       // block-level skip filter; nil when absent or disabled
	codec  bool          // serve lean/quantized read paths
	ctr    *ColdCounters // nil-safe shared counters

	mu     sync.Mutex
	refs   int
	closed bool
}

// ColdCounters aggregates the cold read reducer's counters across every
// cold file of a process. Construct once with NewColdCounters and share;
// a nil *ColdCounters is valid and counts nothing.
type ColdCounters struct {
	SkippedBlocks    *obs.Counter
	QuantizedRejects *obs.Counter
	FallbackReads    *obs.Counter
	BytesSaved       *obs.Counter
}

// NewColdCounters creates the cold read reducer's counter families.
func NewColdCounters() *ColdCounters {
	return &ColdCounters{
		SkippedBlocks: obs.NewCounter("s3_cold_skipped_blocks_total",
			"cold blocks proven empty by the segment sketch and never read"),
		QuantizedRejects: obs.NewCounter("s3_cold_quantized_rejects_total",
			"cold candidates rejected by the quantized distance bound without exact bytes"),
		FallbackReads: obs.NewCounter("s3_cold_exact_fallback_reads_total",
			"single-record exact reads verifying quantized-filter survivors"),
		BytesSaved: obs.NewCounter("s3_cold_bytes_saved_total",
			"on-disk bytes the sketch and codec avoided reading vs the exact block path"),
	}
}

// RegisterMetrics publishes the counters into r. Call at most once per
// registry.
func (c *ColdCounters) RegisterMetrics(r *obs.Registry) {
	r.MustRegister(c.SkippedBlocks, c.QuantizedRejects, c.FallbackReads, c.BytesSaved)
}

func (c *ColdCounters) addSkipped(bytesSaved int64) {
	if c == nil {
		return
	}
	c.SkippedBlocks.Inc()
	c.BytesSaved.Add(bytesSaved)
}

func (c *ColdCounters) addRejects(n, fallbacks, bytesSaved int64) {
	if c == nil {
		return
	}
	c.QuantizedRejects.Add(n)
	c.FallbackReads.Add(fallbacks)
	if bytesSaved > 0 {
		c.BytesSaved.Add(bytesSaved)
	}
}

func (c *ColdCounters) addLeanSaved(bytesSaved int64) {
	if c == nil || bytesSaved <= 0 {
		return
	}
	c.BytesSaved.Add(bytesSaved)
}

// ColdOptions configures cold serving of one segment file.
type ColdOptions struct {
	// Cache is the shared block cache; nil disables caching (every block
	// access reads the disk).
	Cache *BlockCache
	// BlockRecords is the target block size; <= 0 selects
	// DefaultColdBlockRecords.
	BlockRecords int
	// Sketch consults the file's embedded occupancy sketch (when present)
	// to skip blocks a query's intervals provably miss.
	Sketch bool
	// Codec serves statistical refinement from the lean record area and
	// pre-filters geometric candidates with quantized codes (when the file
	// carries the codec).
	Codec bool
	// Counters receives skip/reject/fallback accounting; nil counts
	// nothing.
	Counters *ColdCounters
}

// OpenColdFS opens a database file for cold serving through the given
// cache (nil disables caching: every block access reads the disk).
// blockRecords is the target block size; <= 0 selects
// DefaultColdBlockRecords. The block granularity is the finest partition
// whose largest block fits the target, capped at the file's stored
// section-table granularity. Sketch and codec serving are off; use
// OpenColdOptsFS to enable them.
func OpenColdFS(fsys FS, path string, cache *BlockCache, blockRecords int) (*ColdFile, error) {
	return OpenColdOptsFS(fsys, path, ColdOptions{Cache: cache, BlockRecords: blockRecords})
}

// OpenColdOptsFS opens a database file for cold serving with the given
// options. Sketch and codec requests degrade gracefully on files that
// carry no such section (older formats keep serving on the exact path).
func OpenColdOptsFS(fsys FS, path string, opt ColdOptions) (*ColdFile, error) {
	fl, err := OpenFS(fsys, path)
	if err != nil {
		return nil, err
	}
	blockRecords := opt.BlockRecords
	if blockRecords <= 0 {
		blockRecords = DefaultColdBlockRecords
	}
	bits := fl.ChooseSectionBits(blockRecords)
	var id uint64
	if opt.Cache != nil {
		id = opt.Cache.nextFileID()
	}
	cf := &ColdFile{fl: fl, cache: opt.Cache, id: id, bits: bits,
		shift: uint(fl.curve.IndexBits() - bits), ctr: opt.Counters}
	if opt.Sketch {
		cf.sketch = fl.sketch
	}
	cf.codec = opt.Codec && fl.HasCodec()
	return cf, nil
}

// Curve returns the Hilbert curve the records are ordered by.
func (cf *ColdFile) Curve() *hilbert.Curve { return cf.fl.curve }

// Len returns the number of records in the file.
func (cf *ColdFile) Len() int { return cf.fl.count }

// BlockBits returns the block granularity exponent: blocks are curve
// sections of a 2^BlockBits partition.
func (cf *ColdFile) BlockBits() int { return cf.bits }

// RecordBytes returns the on-disk size of the record area.
func (cf *ColdFile) RecordBytes() int64 { return cf.fl.RecordBytes() }

// Sketch returns the occupancy sketch this cold file consults, or nil
// when the file carries none or sketch serving is disabled.
func (cf *ColdFile) Sketch() *Sketch { return cf.sketch }

// Codec reports whether the lean/quantized read paths are active.
func (cf *ColdFile) Codec() bool { return cf.codec }

// SketchBytes returns the on-disk size of the consulted sketch section.
func (cf *ColdFile) SketchBytes() int {
	if cf.sketch == nil {
		return 0
	}
	return cf.sketch.EncodedSize()
}

// enter registers an in-flight read, failing once the file is closed.
func (cf *ColdFile) enter() error {
	cf.mu.Lock()
	defer cf.mu.Unlock()
	if cf.closed {
		return fmt.Errorf("store: cold file is closed")
	}
	cf.refs++
	return nil
}

// exit drops an in-flight read, releasing the descriptor if Close ran
// meanwhile.
func (cf *ColdFile) exit() {
	cf.mu.Lock()
	cf.refs--
	release := cf.closed && cf.refs == 0
	cf.mu.Unlock()
	if release {
		cf.fl.Close()
	}
}

// Close marks the file closed, drops its cached blocks and releases the
// descriptor (deferred until in-flight visits drain). Idempotent.
func (cf *ColdFile) Close() error {
	cf.mu.Lock()
	if cf.closed {
		cf.mu.Unlock()
		return nil
	}
	cf.closed = true
	release := cf.refs == 0
	cf.mu.Unlock()
	if cf.cache != nil {
		cf.cache.Drop(cf.id)
	}
	if release {
		return cf.fl.Close()
	}
	return nil
}

// pinnedBlock is a block a visit is reading: its rows stay valid, and
// their buffer out of the recycling pool, until done.
type pinnedBlock struct {
	*Chunk
	cache *BlockCache
	e     *cacheEntry // nil when uncached: the visit owns the chunk
}

// done ends the visit's hold on the block: it unpins a cached block and
// recycles an uncached one. The block must not be read afterwards.
func (b pinnedBlock) done() {
	if b.e == nil {
		recycleChunk(b.Chunk)
		return
	}
	b.cache.unpin(b.e)
}

// block returns block s — rows [lo, hi) of one record area — as read
// from disk, through the cache when one is attached, pinned until the
// caller calls done on it. The read lands in a recycled buffer when one
// of its size class is idle.
func (cf *ColdFile) block(a area, s, lo, hi int) (pinnedBlock, error) {
	if cf.cache == nil {
		ch, err := cf.fl.read(a, lo, hi, true)
		return pinnedBlock{Chunk: ch}, err
	}
	e, err := cf.cache.getOrLoad(blockKey{file: cf.id, block: s, area: a}, func() (*Chunk, error) {
		return cf.fl.read(a, lo, hi, true)
	})
	if err != nil {
		return pinnedBlock{}, err
	}
	return pinnedBlock{Chunk: e.val, cache: cf.cache, e: e}, nil
}

// sketchSkips reports whether the sketch proves a block — keys in
// [secStart, secEnd) — holds no record of the intervals touching it.
// Intervals are clipped to the block before probing; a nil sketch or an
// exhausted probe budget never skips.
func (cf *ColdFile) sketchSkips(ivs []hilbert.Interval, secStart, secEnd bitkey.Key, budget *int) bool {
	if cf.sketch == nil {
		return false
	}
	for _, iv := range ivs {
		start, end := iv.Start, iv.End
		if start.Less(secStart) {
			start = secStart
		}
		if secEnd.Less(end) {
			end = secEnd
		}
		if cf.sketch.mayIntersectRange(start, end, budget) {
			return false
		}
	}
	return true
}

// visitBlocks walks the blocks the intervals touch in curve order — the
// cursor logic of the pseudo-disk batch path — calling do once per
// non-empty touched block even when several intervals fall inside it.
// Empty stretches of the curve are skipped by jumping the block cursor
// to the next interval's start; blocks the sketch proves interval-free
// are skipped without a read. do receives the block index, its record
// range and the intervals touching it; returning false stops the walk.
func (cf *ColdFile) visitBlocks(ivs []hilbert.Interval,
	do func(s, lo, hi int, touching []hilbert.Interval) (bool, error)) error {
	if len(ivs) == 0 || cf.fl.count == 0 {
		return nil
	}
	if err := cf.enter(); err != nil {
		return err
	}
	defer cf.exit()
	budget := maxSketchProbes
	nb := 1 << uint(cf.bits)
	c := 0
	for c < len(ivs) {
		// Jump to the first block the current interval touches.
		s := int(ivs[c].Start.Shr(cf.shift).Uint64())
		if s >= nb {
			break
		}
		for ; s < nb && c < len(ivs); s++ {
			secStart := bitkey.FromUint64(uint64(s)).Shl(cf.shift)
			secEnd := bitkey.FromUint64(uint64(s) + 1).Shl(cf.shift)
			for c < len(ivs) && ivs[c].End.Cmp(secStart) <= 0 {
				c++
			}
			if c >= len(ivs) {
				break
			}
			if !ivs[c].Start.Less(secEnd) {
				// The next interval starts past this block: recompute the
				// jump in the outer loop instead of scanning empty blocks.
				break
			}
			lo, hi := cf.fl.SectionRecordRange(cf.bits, s)
			if lo == hi {
				continue
			}
			e := c + 1
			for e < len(ivs) && ivs[e].Start.Less(secEnd) {
				e++
			}
			if cf.sketchSkips(ivs[c:e], secStart, secEnd, &budget) {
				cf.ctr.addSkipped(int64(hi-lo) * int64(cf.fl.recSize))
				continue
			}
			ok, err := do(s, lo, hi, ivs[c:e])
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
		}
		if s >= nb {
			// The block cursor ran off the curve: whatever interval tail
			// remains was covered by the blocks just visited.
			break
		}
	}
	return nil
}

// VisitIntervals implements RecordSource over the exact record area,
// refining each touched block with in-place key searches.
func (cf *ColdFile) VisitIntervals(ivs []hilbert.Interval, visit func(RecordView) bool) error {
	return cf.visitArea(areaExact, ivs, visit)
}

// visitArea visits the intervals' records from one keyed area: exact
// rows, or lean rows (whose views carry no fingerprint) counted against
// the exact bytes they spared.
func (cf *ColdFile) visitArea(a area, ivs []hilbert.Interval, visit func(RecordView) bool) error {
	return cf.visitBlocks(ivs, func(s, lo, hi int, touching []hilbert.Interval) (bool, error) {
		b, err := cf.block(a, s, lo, hi)
		if err != nil {
			return false, err
		}
		defer b.done()
		if a == areaLean {
			cf.ctr.addLeanSaved(int64(hi-lo) * int64(cf.fl.recSize-cf.fl.leanSize))
		}
		return b.selected(touching, func(i int) bool { return visit(b.view(i)) }), nil
	})
}

// VisitIntervalsLean implements LeanSource: identical to VisitIntervals
// except visited views carry a nil FP, served from the lean record area
// when the codec is active (statistical refinement never reads
// fingerprints, so the bytes per touched block shrink by
// recSize/leanSize). Falls back to the exact area otherwise.
func (cf *ColdFile) VisitIntervalsLean(ivs []hilbert.Interval, visit func(RecordView) bool) error {
	if !cf.codec {
		return cf.VisitIntervals(ivs, func(rv RecordView) bool {
			rv.FP = nil
			return visit(rv)
		})
	}
	return cf.visitArea(areaLean, ivs, visit)
}

// VisitIntervalsFiltered implements FilteredSource: visit every record
// of the intervals whose exact squared distance to qf could be within
// boundSq, pre-filtering candidates on the packed quantizer codes so
// rejected records never cost exact bytes. Survivors are verified from
// exact bytes — the whole exact block when enough survive to justify it,
// single-record fallback reads otherwise. The filter is conservative:
// every record within boundSq is visited (with its exact FP); records
// beyond boundSq may be visited too, so callers must keep their exact
// predicate. Falls back to VisitIntervals when the codec is inactive.
func (cf *ColdFile) VisitIntervalsFiltered(ivs []hilbert.Interval, qf []float64, boundSq float64,
	visit func(RecordView) bool) error {
	if !cf.codec {
		return cf.VisitIntervals(ivs, visit)
	}
	lb := cf.fl.quant.NewLowerBounder(qf)
	var survivors []int // reused across blocks, record indices relative to lo
	return cf.visitBlocks(ivs, func(s, lo, hi int, touching []hilbert.Interval) (bool, error) {
		codes, err := cf.block(areaCodes, s, lo, hi)
		if err != nil {
			return false, err
		}
		defer codes.done()
		// Keys drive interval refinement within the block; the lean rows
		// carry them at the smallest byte cost.
		lean, err := cf.block(areaLean, s, lo, hi)
		if err != nil {
			return false, err
		}
		defer lean.done()
		survivors = survivors[:0]
		rejects := int64(0)
		lean.selected(touching, func(i int) bool {
			if lb.Exceeds(codes.row(i), boundSq) {
				rejects++
			} else {
				survivors = append(survivors, i)
			}
			return true
		})
		n := hi - lo
		blockBytes := int64(n) * int64(cf.fl.recSize)
		readBytes := int64(n) * int64(cf.fl.codeSize+cf.fl.leanSize)
		if len(survivors)*2 >= n {
			// Dense survivors: one exact block read beats per-record preads.
			ex, err := cf.block(areaExact, s, lo, hi)
			if err != nil {
				return false, err
			}
			defer ex.done()
			cf.ctr.addRejects(rejects, 0, -readBytes)
			for _, i := range survivors {
				if !visit(ex.view(i)) {
					return false, nil
				}
			}
			return true, nil
		}
		fallbackBytes := int64(len(survivors)) * int64(cf.fl.recSize)
		cf.ctr.addRejects(rejects, int64(len(survivors)), blockBytes-readBytes-fallbackBytes)
		for _, i := range survivors {
			rv, err := cf.fl.ReadRecordView(lo + i)
			if err != nil {
				return false, err
			}
			if !visit(rv) {
				return false, nil
			}
		}
		return true, nil
	})
}

// CountID returns the number of records carrying the given identifier,
// scanning the file block by block *without* touching the cache: the
// delete path is rare and a full scan through the cache would evict the
// hot query blocks.
func (cf *ColdFile) CountID(id uint32) (int, error) {
	if err := cf.enter(); err != nil {
		return 0, err
	}
	defer cf.exit()
	n := 0
	for s := 0; s < 1<<uint(cf.bits); s++ {
		lo, hi := cf.fl.SectionRecordRange(cf.bits, s)
		if lo == hi {
			continue
		}
		ch, err := cf.fl.LoadRecords(lo, hi)
		if err != nil {
			return 0, err
		}
		for i := 0; i < ch.Len(); i++ {
			if ch.ID(i) == id {
				n++
			}
		}
	}
	return n, nil
}

// LoadAll reads the whole file into an in-memory DB, bypassing the cache
// (compaction input — one-shot bulk reads would churn the working set).
func (cf *ColdFile) LoadAll() (*DB, error) {
	if err := cf.enter(); err != nil {
		return nil, err
	}
	defer cf.exit()
	return cf.fl.LoadAll()
}
