package store

import (
	"fmt"
	"sync"

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
// A ColdFile is safe for concurrent visits of every kind: its reads go
// through the Handle's ReadAt, which the FS contract makes safe for
// concurrent use. Close drops the file's cached blocks and releases the
// descriptor once in-flight visits drain; visits after Close fail with
// an error.
type ColdFile struct {
	fl    *File
	cache *BlockCache
	id    uint64
	bits  int // blocks are curve sections of a 2^bits partition

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
	// to skip blocks a query's runs provably miss.
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
	cf := &ColdFile{fl: fl, cache: opt.Cache, id: id, bits: bits, ctr: opt.Counters}
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

// sketchSkips reports whether the sketch proves block s holds no record
// of the runs at depth touching it. Runs are clipped to the block before
// probing, at the finer of the two depths; a nil sketch or an exhausted
// probe budget never skips.
func (cf *ColdFile) sketchSkips(depth int, runs []hilbert.Run, s uint64, budget *int) bool {
	if cf.sketch == nil {
		return false
	}
	q := max(depth, cf.bits)
	block := hilbert.Run{Lo: s, Hi: s + 1}.Rescale(cf.bits, q)
	for _, r := range runs {
		r = r.Rescale(depth, q)
		r.Lo, r.Hi = max(r.Lo, block.Lo), min(r.Hi, block.Hi)
		if r.Lo < r.Hi && cf.sketch.mayIntersectRun(q, r, budget) {
			return false
		}
	}
	return true
}

// visitBlocks walks the blocks the runs at depth touch in curve order —
// the cursor logic of the pseudo-disk batch path — calling do once per
// non-empty touched block even when several runs fall inside it. Empty
// stretches of the curve are skipped by jumping the block cursor to the
// next run's first block; blocks the sketch proves run-free are skipped
// without a read. do receives the block index, its record range and the
// runs touching it; returning false stops the walk.
func (cf *ColdFile) visitBlocks(depth int, runs []hilbert.Run,
	do func(s, lo, hi int, touching []hilbert.Run) (bool, error)) error {
	if len(runs) == 0 || cf.fl.count == 0 {
		return nil
	}
	if err := cf.enter(); err != nil {
		return err
	}
	defer cf.exit()
	budget := maxSketchProbes
	// blocks returns the blocks run c touches.
	blocks := func(c int) hilbert.Run { return runs[c].Rescale(depth, cf.bits) }
	for c := 0; c < len(runs); {
		// Jump to the first block the current run touches; a run past
		// the block the cursor stands on sends it back here.
		for s := blocks(c).Lo; ; s++ {
			for c < len(runs) && blocks(c).Hi <= s {
				c++
			}
			if c == len(runs) || blocks(c).Lo > s {
				break
			}
			lo, hi := cf.fl.SectionRecordRange(cf.bits, int(s))
			if lo == hi {
				continue
			}
			e := c + 1
			for e < len(runs) && blocks(e).Lo <= s {
				e++
			}
			if cf.sketchSkips(depth, runs[c:e], s, &budget) {
				cf.ctr.addSkipped(int64(hi-lo) * int64(cf.fl.recSize))
				continue
			}
			ok, err := do(int(s), lo, hi, runs[c:e])
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
		}
	}
	return nil
}

// VisitIntervals implements RecordSource over the exact record area,
// refining each touched block with in-place key searches: one span per
// run the block's rows answer.
func (cf *ColdFile) VisitIntervals(depth int, runs []hilbert.Run, visit func(c *Chunk, lo, hi int) bool) error {
	return cf.visitArea(areaExact, depth, runs, visit)
}

// visitArea visits the runs' rows from one keyed area: exact rows, or
// lean rows (whose chunks carry no fingerprint) counted against the
// exact bytes they spared.
func (cf *ColdFile) visitArea(a area, depth int, runs []hilbert.Run, visit func(c *Chunk, lo, hi int) bool) error {
	shift := cf.runShift(depth)
	return cf.visitBlocks(depth, runs, func(s, lo, hi int, touching []hilbert.Run) (bool, error) {
		b, err := cf.block(a, s, lo, hi)
		if err != nil {
			return false, err
		}
		defer b.done()
		if a == areaLean {
			cf.ctr.addLeanSaved(int64(hi-lo) * int64(cf.fl.recSize-cf.fl.leanSize))
		}
		return b.spans(shift, touching, visit), nil
	})
}

// runShift returns the curve index bits a block at depth spans.
func (cf *ColdFile) runShift(depth int) uint { return uint(cf.fl.curve.IndexBits() - depth) }

// VisitIntervalsLean implements RecordSource from the lean record area
// when the codec is active: the spans' chunks carry no fingerprint
// (statistical refinement never reads one), so the bytes per touched
// block shrink by recSize/leanSize. Falls back to the exact area
// otherwise.
func (cf *ColdFile) VisitIntervalsLean(depth int, runs []hilbert.Run, visit func(c *Chunk, lo, hi int) bool) error {
	if !cf.codec {
		return cf.VisitIntervals(depth, runs, visit)
	}
	return cf.visitArea(areaLean, depth, runs, visit)
}

// VisitIntervalsFiltered implements RecordSource, pre-filtering
// candidates on the packed quantizer codes so rejected records never
// cost exact bytes. Each survivor is a one-row span of exact bytes: the
// whole exact block when enough survive to justify it, a single-record
// fallback read otherwise. Falls back to VisitIntervals when the codec
// is inactive.
func (cf *ColdFile) VisitIntervalsFiltered(depth int, runs []hilbert.Run, qf []float64, boundSq float64,
	visit func(c *Chunk, lo, hi int) bool) error {
	if !cf.codec {
		return cf.VisitIntervals(depth, runs, visit)
	}
	lb := cf.fl.quant.NewLowerBounder(qf)
	defer cf.fl.quant.recycle(lb)
	shift := cf.runShift(depth)
	return cf.visitBlocks(depth, runs, func(s, lo, hi int, touching []hilbert.Run) (bool, error) {
		codes, err := cf.block(areaCodes, s, lo, hi)
		if err != nil {
			return false, err
		}
		defer codes.done()
		// Keys drive run refinement within the block; the lean rows
		// carry them at the smallest byte cost.
		lean, err := cf.block(areaLean, s, lo, hi)
		if err != nil {
			return false, err
		}
		defer lean.done()
		// Survivors are record indices relative to lo.
		survivors := lb.survivors[:0]
		rejects := int64(0)
		lean.spans(shift, touching, func(_ *Chunk, a, b int) bool {
			for i := a; i < b; i++ {
				if lb.Exceeds(codes.row(i), boundSq) {
					rejects++
				} else {
					survivors = append(survivors, i)
				}
			}
			return true
		})
		lb.survivors = survivors
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
				if !visit(ex.Chunk, i, i+1) {
					return false, nil
				}
			}
			return true, nil
		}
		fallbackBytes := int64(len(survivors)) * int64(cf.fl.recSize)
		cf.ctr.addRejects(rejects, int64(len(survivors)), blockBytes-readBytes-fallbackBytes)
		for _, i := range survivors {
			ch, err := cf.fl.read(areaExact, lo+i, lo+i+1, true)
			if err != nil {
				return false, err
			}
			ok := visit(ch, 0, 1)
			recycleChunk(ch)
			if !ok {
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
