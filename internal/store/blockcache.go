package store

import (
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
// A block is charged the bytes it holds, which are its on-disk bytes:
// the budget bounds what the cache keeps resident (a 64-byte header per
// block aside) and ties it to the corpus size an operator can measure
// (10% of total record bytes, say). A block larger than the whole budget
// still caches — and is evicted as soon as the next block lands — so a
// pathological section cannot wedge the cache, only thrash it.
//
// Concurrency: one mutex guards the map and LRU list; the disk read of a
// miss runs outside it, with per-entry singleflight so concurrent misses
// on one block issue one read. Evicted chunks may still be referenced by
// in-flight readers — chunks are immutable, so that is safe; the garbage
// collector reclaims them once the readers drop.
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
	val *Chunk // non-nil once loaded; its cost is len(val.buf)

	prev, next *cacheEntry

	// ready is closed when the load completes; err is the load failure
	// (the entry is removed from the map before ready closes on error).
	ready chan struct{}
	err   error
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
	r.GaugeFunc("s3_blockcache_bytes", "on-disk record bytes currently cached",
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

// getOrLoad returns the cached block for key, or runs load (outside the
// cache lock, singleflighted per key) and caches its result, charging
// the bytes the block holds. Blocks are immutable.
func (c *BlockCache) getOrLoad(key blockKey, load func() (*Chunk, error)) (*Chunk, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		if e.val != nil {
			c.moveToFront(e)
			c.mu.Unlock()
			c.hits.Inc()
			return e.val, nil
		}
		// Load in flight: wait for it off the lock. A waiter counts as a
		// hit — it issues no disk read of its own.
		c.mu.Unlock()
		<-e.ready
		if e.err != nil {
			return nil, e.err
		}
		c.hits.Inc()
		return e.val, nil
	}
	e := &cacheEntry{key: key, ready: make(chan struct{})}
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
		close(e.ready)
		return nil, err
	}
	e.val = val
	c.loadedBytes.Add(e.cost())
	if c.entries[key] == e {
		// Still wanted (Drop may have disowned the entry mid-load).
		c.pushFront(e)
		c.evictOverBudget()
	}
	c.mu.Unlock()
	close(e.ready)
	return val, nil
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
	}
}

// cost is the budget charge of a loaded entry: the bytes it holds.
func (e *cacheEntry) cost() int64 { return int64(len(e.val.buf)) }

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
