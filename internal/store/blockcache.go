package store

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"s3cbcd/internal/obs"
)

// BlockCache is a fixed-budget LRU cache of record blocks, shared by
// every cold segment of a process: one budget bounds the resident record
// bytes no matter how many segments the live index accumulates. Blocks
// are curve-section-aligned runs of rows (see ColdFile), held as the
// bytes their read returned; the cache key is (file, block index, area)
// under a process-unique file id, so entries of a closed segment can be
// dropped precisely.
//
// A block is charged the capacity of the buffer holding it: its on-disk
// bytes rounded up to a recycling size class (at most 1/8 more, see
// chunkClass). The budget therefore bounds the bytes the cache keeps
// resident (a 64-byte header per block aside) and stays tied to the
// corpus size an operator can measure (10% of total record bytes, say).
// A block larger than the whole budget still caches — and is evicted as
// soon as the next block lands — so a pathological section cannot wedge
// the cache, only thrash it.
//
// Concurrency: one mutex guards the map, the LRU list and every entry's
// pin count; the disk read of a miss runs outside it, with per-entry
// singleflight so concurrent misses on one block issue one read. A
// reader pins the block it visits (getOrLoad returns it pinned; unpin
// releases it). An entry leaving the cache — evicted, dropped, or never
// inserted because Drop disowned it mid-load — hands its buffer to the
// recycling pool once its last reader unpins it, and the next miss reads
// into that buffer instead of allocating one.
type BlockCache struct {
	budget int64

	mu      sync.Mutex
	used    int64 // bytes held by the blocks in the LRU list
	blocks  int   // their number
	entries map[blockKey]*cacheEntry
	// Intrusive LRU list of ready entries: head is most recent, tail is
	// the eviction candidate. Loading entries are in the map (for
	// singleflight) but not in the list.
	head, tail *cacheEntry

	fileSeq atomic.Uint64

	hits        *obs.Counter
	misses      *obs.Counter
	evictions   *obs.Counter
	loadedBytes *obs.Counter
}

// blockKey names one cached block. The area namespaces a file's parallel
// record areas: a codec-bearing cold file caches exact, lean and packed
// code rows for the same block index side by side.
type blockKey struct {
	file  uint64
	block int
	area  area
}

type cacheEntry struct {
	key blockKey
	val *Chunk // non-nil once loaded until recycled; its cost is cap(val.buf)

	prev, next *cacheEntry

	// ready is released when the load completes; err is the load failure
	// (the entry is removed from the map before ready releases on error).
	// A WaitGroup, not a channel: it lives inside the entry, so a miss
	// allocates the entry and nothing else.
	ready sync.WaitGroup
	err   error

	// pins counts the readers holding val; out marks an entry the cache
	// no longer owns. val is recycled when both hold: out and no pins.
	// Both are guarded by the cache mutex.
	pins int
	out  bool
}

// NewBlockCache creates a cache bounded to budgetBytes of on-disk record
// bytes. A budget <= 0 disables retention: every access loads from disk
// (useful for measuring the uncached cost).
func NewBlockCache(budgetBytes int64) *BlockCache {
	return &BlockCache{
		budget:  budgetBytes,
		entries: make(map[blockKey]*cacheEntry),
		hits: obs.NewCounter("s3_blockcache_hits_total",
			"block lookups served from the cache (singleflight waiters included)"),
		misses: obs.NewCounter("s3_blockcache_misses_total",
			"block lookups that issued a disk read"),
		evictions: obs.NewCounter("s3_blockcache_evictions_total",
			"blocks evicted to fit the byte budget"),
		loadedBytes: obs.NewCounter("s3_blockcache_loaded_bytes_total",
			"on-disk record bytes read into the cache by misses"),
	}
}

// RegisterMetrics publishes the cache's counters plus gauges reading its
// occupancy into r. Call at most once per registry (one shared cache per
// process is the intended shape).
func (c *BlockCache) RegisterMetrics(r *obs.Registry) {
	r.MustRegister(c.hits, c.misses, c.evictions, c.loadedBytes)
	r.GaugeFunc("s3_blockcache_bytes", "bytes held by the cached blocks' buffers (what the budget charges)",
		func() float64 { return float64(c.Stats().Bytes) })
	r.GaugeFunc("s3_blockcache_budget_bytes", "block cache byte budget",
		func() float64 { return float64(c.budget) })
	r.GaugeFunc("s3_blockcache_blocks", "blocks currently cached",
		func() float64 { return float64(c.Stats().Blocks) })
}

// CacheStats is a point-in-time report of a BlockCache.
type CacheStats struct {
	// Hits, Misses, Evictions and LoadedBytes are lifetime counters:
	// lookups served without a disk read, lookups that issued one, blocks
	// evicted for budget, and on-disk bytes those misses read.
	Hits, Misses, Evictions, LoadedBytes int64
	// Bytes and Blocks are the current occupancy; BudgetBytes the bound.
	// Bytes is the capacity of the buffers holding the cached blocks —
	// what the budget charges — so it may exceed the on-disk bytes those
	// blocks cover by up to 1/8 (LoadedBytes counts bytes read).
	Bytes       int64
	BudgetBytes int64
	Blocks      int
}

// Stats reports the cache's counters and occupancy.
func (c *BlockCache) Stats() CacheStats {
	c.mu.Lock()
	bytes, blocks := c.used, c.blocks
	c.mu.Unlock()
	return CacheStats{
		Hits:        c.hits.Value(),
		Misses:      c.misses.Value(),
		Evictions:   c.evictions.Value(),
		LoadedBytes: c.loadedBytes.Value(),
		Bytes:       bytes,
		BudgetBytes: c.budget,
		Blocks:      blocks,
	}
}

// Budget returns the cache's byte budget.
func (c *BlockCache) Budget() int64 { return c.budget }

// nextFileID allocates a process-unique id namespacing one file's blocks.
func (c *BlockCache) nextFileID() uint64 { return c.fileSeq.Add(1) }

// getOrLoad returns the block for key pinned — its entry, whose val
// stays valid until the caller unpins it — serving it from the cache or
// running load (outside the cache lock, singleflighted per key) and
// caching the result, charging the capacity it holds. load must draw its
// chunk from the recycling pool and return nothing on failure.
func (c *BlockCache) getOrLoad(key blockKey, load func() (*Chunk, error)) (*cacheEntry, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		// Pin before waiting: an entry evicted between the load's
		// completion and this reader's wake-up must not be recycled under
		// it.
		e.pins++
		if e.val != nil {
			c.moveToFront(e)
			c.mu.Unlock()
			c.hits.Inc()
			return e, nil
		}
		// Load in flight: wait for it off the lock. A waiter counts as a
		// hit — it issues no disk read of its own.
		c.mu.Unlock()
		e.ready.Wait()
		if e.err != nil {
			c.unpin(e)
			return nil, e.err
		}
		c.hits.Inc()
		return e, nil
	}
	e := &cacheEntry{key: key, pins: 1} // the loader holds the first pin
	e.ready.Add(1)
	c.entries[key] = e
	c.mu.Unlock()
	c.misses.Inc()

	val, err := load()
	c.mu.Lock()
	if err != nil {
		e.err = err
		// Remove before waking waiters so the next lookup retries the
		// load instead of caching the failure.
		if c.entries[key] == e {
			delete(c.entries, key)
		}
		c.mu.Unlock()
		e.ready.Done()
		return nil, err
	}
	e.val = val
	c.loadedBytes.Add(int64(len(val.buf)))
	if c.entries[key] == e {
		c.pushFront(e)
		c.evictOverBudget()
	} else {
		// Drop disowned the entry mid-load: its readers are all it has.
		e.out = true
	}
	c.mu.Unlock()
	e.ready.Done()
	return e, nil
}

// unpin releases a reader's pin on e, recycling its buffer if the cache
// no longer owns it and this was the last reader.
func (c *BlockCache) unpin(e *cacheEntry) {
	c.mu.Lock()
	e.pins--
	c.recycleIfFree(e)
	c.mu.Unlock()
}

// release marks an entry the cache no longer owns, recycling its buffer
// unless a reader still pins it. Caller holds mu.
func (c *BlockCache) release(e *cacheEntry) {
	e.out = true
	c.recycleIfFree(e)
}

// recycleIfFree hands an unowned, unpinned entry's buffer to the pool.
// Caller holds mu.
func (c *BlockCache) recycleIfFree(e *cacheEntry) {
	if e.out && e.pins == 0 && e.val != nil {
		recycleChunk(e.val)
		e.val = nil
	}
}

// Drop discards every cached block of the given file. Called when a cold
// segment file closes; a load in flight for the file completes for its
// waiters but is not retained.
func (c *BlockCache) Drop(file uint64) {
	c.mu.Lock()
	for key, e := range c.entries {
		if key.file != file {
			continue
		}
		delete(c.entries, key)
		if e.val != nil {
			c.unlink(e)
			c.release(e)
		}
	}
	c.mu.Unlock()
}

// evictOverBudget drops LRU-tail entries until the budget holds. Caller
// holds mu.
func (c *BlockCache) evictOverBudget() {
	for c.used > c.budget && c.tail != nil {
		e := c.tail
		c.unlink(e)
		delete(c.entries, e.key)
		c.evictions.Inc()
		c.release(e)
	}
}

// cost is the budget charge of a loaded entry: the capacity it holds.
func (e *cacheEntry) cost() int64 { return int64(cap(e.val.buf)) }

// pushFront inserts a ready entry at the LRU head, charging it. Caller
// holds mu.
func (c *BlockCache) pushFront(e *cacheEntry) {
	c.used += e.cost()
	c.blocks++
	e.prev, e.next = nil, c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

// unlink removes an entry from the LRU list, refunding it. Caller holds
// mu.
func (c *BlockCache) unlink(e *cacheEntry) {
	c.used -= e.cost()
	c.blocks--
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// moveToFront marks an entry most recently used. Caller holds mu.
func (c *BlockCache) moveToFront(e *cacheEntry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

// Cold block buffers are recycled rather than collected. Every miss of a
// cold file (ColdFile.block) and every single-record read verifying a
// filtered survivor draws its chunk — header and row buffer — from a
// pool by size class and hands it back once no cache entry and no reader
// holds it, so the steady state of a thrashing cache allocates and
// zeroes nothing per block. Pools are sync.Pools: an idle buffer stays
// collectable, so recycling never holds memory a GC could reclaim. Only
// cold visits draw from them; one-shot reads (LoadAll, LoadRecords)
// allocate exactly, since their buffers escape or would be rounded up
// for nothing.
//
// The pool holds *Chunk, not []byte: storing a pointer in an interface
// does not allocate, storing a slice would.

// chunkClassSteps is the number of size classes per power of two: a
// buffer's capacity exceeds its request by at most 1/chunkClassSteps.
// The budget charges capacity, so coarser classes would shrink what a
// cache of a given budget holds (power-of-two classes cut the
// cold_mixed hit rate by a third).
const chunkClassSteps = 8

// chunkPools holds one pool per size class (see chunkClass), up to the
// class of the largest int.
var chunkPools [2*chunkClassSteps + 1 + (bits.UintSize-5)*chunkClassSteps]sync.Pool

// chunkPoolHook, when non-nil, observes the pool: it sees each chunk as
// it is drawn (put false) and as it is recycled (put true). Tests set it
// to poison recycled bytes and to catch a chunk recycled twice; it is nil
// otherwise.
var chunkPoolHook func(ch *Chunk, put bool)

// chunkClass returns the size class of an n-byte buffer and the capacity
// buffers of that class have. Up to 2·chunkClassSteps bytes every size is
// its own class; above, each power-of-two octave (2^e, 2^(e+1)] splits
// into chunkClassSteps equal steps.
func chunkClass(n int) (class, capacity int) {
	if n <= 2*chunkClassSteps {
		return n, n
	}
	e := bits.Len(uint(n-1)) - 1 // 2^e < n <= 2^(e+1)
	step := 1 << uint(e-3)       // 2^e / chunkClassSteps
	k := (n - 1<<uint(e) + step - 1) / step
	return 2*chunkClassSteps + (e-4)*chunkClassSteps + k, 1<<uint(e) + k*step
}

// drawChunk returns a chunk whose buffer holds n bytes, recycled when its
// class has one idle. The buffer's contents are stale: the caller
// overwrites every byte.
func drawChunk(n int) *Chunk {
	class, capacity := chunkClass(n)
	ch, _ := chunkPools[class].Get().(*Chunk)
	if ch == nil {
		ch = &Chunk{buf: make([]byte, capacity)}
	}
	ch.buf = ch.buf[:n]
	if chunkPoolHook != nil {
		chunkPoolHook(ch, false)
	}
	return ch
}

// recycleChunk hands a drawn chunk back to its class. The caller must
// hold the only reference.
func recycleChunk(ch *Chunk) {
	class, _ := chunkClass(cap(ch.buf))
	if chunkPoolHook != nil {
		chunkPoolHook(ch, true)
	}
	chunkPools[class].Put(ch)
}
