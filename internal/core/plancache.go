package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"sync"

	"s3cbcd/internal/hilbert"
	"s3cbcd/internal/obs"
)

// This file implements the bounded plan cache. A statistical plan
// depends only on (curve, partition depth, distortion model, α, query
// point) — never on the record data — so identical queries against an
// unchanged index recompute identical plans. A plan is named by its
// exact inputs: the key is the query bytes, α, model key, partition
// depth and index generation, and the hash that picks a key's shard and
// chain mixes those same exact values. Near-identical queries therefore
// spread over chains like any other distinct keys, static and live
// caches hash alike, and answers are byte-identical with the cache on
// or off.
//
// Invalidation is by construction: the index generation is part of the
// key, so a plan cached against generation g can never be returned once
// the snapshot advances — stale entries simply stop matching and age
// out of the LRU. There is no invalidation walk to miss.

// PlanKeyer is the optional capability a Model implements to make its
// plans cacheable: PlanKey must injectively encode the model's full
// parameterization in 64 bits (two models with different ComponentMass
// behavior must never return the same key), or return false to opt out.
// The model's dimension does not need encoding — query validation pins
// it to the index. Models without PlanKeyer bypass the cache.
type PlanKeyer interface {
	PlanKey() (uint64, bool)
}

// modelPlanKey resolves a model's cache key, false when the model does
// not support caching.
func modelPlanKey(m Model) (uint64, bool) {
	if pk, ok := m.(PlanKeyer); ok {
		return pk.PlanKey()
	}
	return 0, false
}

// nocacheKey is the context key of WithoutPlanCache (zero-size, same
// idiom as the obs trace key).
type nocacheKey struct{}

// WithoutPlanCache returns a context whose statistical queries bypass
// the plan cache and recompute their plan — the ?nocache=1 escape hatch
// of the HTTP API, and the oracle the equivalence tests compare
// against. Refinement and answers are unaffected.
func WithoutPlanCache(ctx context.Context) context.Context {
	return context.WithValue(ctx, nocacheKey{}, true)
}

// planCacheBypassed reports whether ctx opted out of the plan cache.
func planCacheBypassed(ctx context.Context) bool {
	if ctx == nil {
		return false
	}
	v, _ := ctx.Value(nocacheKey{}).(bool)
	return v
}

// DefaultPlanCacheEntries is the capacity of every served plan cache:
// plans are small (merged runs plus scalars), so a few thousand
// cover a monitoring session's working set comfortably.
const DefaultPlanCacheEntries = 4096

// planCacheShards is the lock-striping factor; picked by high hash bits
// so hot keys of different queries contend on different mutexes.
const planCacheShards = 8

// PlanCacheStats is a point-in-time report of the plan cache.
type PlanCacheStats struct {
	// Hits counts lookups served from a completed cached plan, including
	// waiters that joined an in-flight computation.
	Hits int64
	// Misses counts plan computations the cache admitted (exactly one per
	// concurrent burst on a cold key — see SharedWaits).
	Misses int64
	// SharedWaits counts lookups that found the key's plan already being
	// computed and waited for it instead of recomputing.
	SharedWaits int64
	// Bypasses counts statistical queries that skipped the cache: their
	// model does not implement PlanKeyer, or their context opted out
	// (WithoutPlanCache, ?nocache=1 over HTTP).
	Bypasses int64
	// Evictions counts entries dropped by the LRU bound (stale-generation
	// entries leave this way too).
	Evictions int64
	// Entries is the number of completed plans currently held.
	Entries int
}

// planEntry is one cached (or in-flight) plan. Everything but plan/done
// is immutable after insertion; plan/done flip exactly once, under the
// shard mutex, before ready is closed.
type planEntry struct {
	hash      uint64
	q         []byte
	alphaBits uint64
	mkey      uint64
	gen       uint64
	depth     int
	ready     chan struct{} // closed when done flips (or the computation abandons)
	done      bool
	plan      Plan // Intervals owned by the entry, treated as immutable

	hnext      *planEntry // hash chain
	prev, next *planEntry // LRU list (completed entries only)
}

func (e *planEntry) matches(h uint64, q []byte, alphaBits, mkey, gen uint64, depth int) bool {
	return e.hash == h && e.alphaBits == alphaBits && e.mkey == mkey &&
		e.gen == gen && e.depth == depth && bytes.Equal(e.q, q)
}

// pcShard is one lock stripe: a chained hash map of entries plus an
// intrusive LRU over the completed ones.
type pcShard struct {
	mu         sync.Mutex
	chains     map[uint64]*planEntry
	head, tail *planEntry // LRU: head most recently used
	size       int        // completed entries
}

// planCacheMetrics are the cache's instruments, created unregistered at
// newPlanCache and published by RegisterMetrics (the construct-then-
// register protocol every subsystem here follows).
type planCacheMetrics struct {
	hits        *obs.Counter
	misses      *obs.Counter
	sharedWaits *obs.Counter
	bypasses    *obs.Counter
	evictions   *obs.Counter
}

func newPlanCacheMetrics() planCacheMetrics {
	return planCacheMetrics{
		hits: obs.NewCounter("s3_plan_cache_hits_total",
			"statistical plans served from the cache (in-flight joins included)"),
		misses: obs.NewCounter("s3_plan_cache_misses_total",
			"statistical plans computed and inserted (one per concurrent burst on a cold key)"),
		sharedWaits: obs.NewCounter("s3_plan_cache_shared_waits_total",
			"lookups that waited on another caller's in-flight plan computation"),
		bypasses: obs.NewCounter("s3_plan_cache_bypass_total",
			"statistical queries that skipped the cache (model without PlanKeyer or ?nocache)"),
		evictions: obs.NewCounter("s3_plan_cache_evictions_total",
			"cached plans dropped by the LRU capacity bound"),
	}
}

// planCache is a bounded, sharded, singleflighted LRU of statistical
// plans. Safe for concurrent use.
type planCache struct {
	perShard int
	shards   [planCacheShards]pcShard
	met      planCacheMetrics
}

// newPlanCache builds a cache holding at most about entries completed
// plans (rounded up to a multiple of the shard count).
func newPlanCache(entries int) *planCache {
	per := (entries + planCacheShards - 1) / planCacheShards
	pc := &planCache{perShard: per, met: newPlanCacheMetrics()}
	for i := range pc.shards {
		pc.shards[i].chains = make(map[uint64]*planEntry)
	}
	return pc
}

// mix64 is the splitmix64 finalizer (the hash family the segment
// sketches already use).
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// keyHash buckets a full key, mixing every component exactly: the query
// bytes eight at a time, then α, model key, generation and depth.
// Collisions only cost a chain comparison: matches() always verifies
// the full key.
func keyHash(q []byte, alphaBits, mkey, gen uint64, depth int) uint64 {
	h := uint64(0x9e3779b97f4a7c15) ^ uint64(len(q))
	for ; len(q) >= 8; q = q[8:] {
		h = mix64(h ^ binary.LittleEndian.Uint64(q))
	}
	var tail uint64
	for i, v := range q {
		tail |= uint64(v) << (8 * i)
	}
	h = mix64(h ^ tail)
	h = mix64(h ^ alphaBits)
	h = mix64(h ^ mkey)
	h = mix64(h ^ gen)
	h = mix64(h ^ uint64(depth))
	return h
}

// moveFront makes e the LRU head. Caller holds sh.mu; e is linked.
func (sh *pcShard) moveFront(e *planEntry) {
	if sh.head == e {
		return
	}
	sh.unlink(e)
	sh.pushFront(e)
}

func (sh *pcShard) pushFront(e *planEntry) {
	e.prev = nil
	e.next = sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

func (sh *pcShard) unlink(e *planEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if sh.head == e {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if sh.tail == e {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// unchain removes e from its hash chain. Caller holds sh.mu.
func (sh *pcShard) unchain(e *planEntry) {
	head := sh.chains[e.hash]
	if head == e {
		if e.hnext == nil {
			delete(sh.chains, e.hash)
		} else {
			sh.chains[e.hash] = e.hnext
		}
		return
	}
	for c := head; c != nil; c = c.hnext {
		if c.hnext == e {
			c.hnext = e.hnext
			return
		}
	}
}

// plan returns the plan for the given key, computing it via compute on
// a miss. compute runs outside every lock; concurrent callers of the
// same cold key run it exactly once (the rest wait on the winner). The
// returned Plan's Intervals are shared and immutable — the same
// "aliased, copy to retain" contract Engine.PlanStat documents — which
// is what keeps the hit path allocation-free. The bool is false only
// when ctx was canceled while waiting on another caller's computation;
// the caller then plans uncached (its ctx error surfaces downstream).
func (pc *planCache) plan(ctx context.Context, q []byte, alpha float64, mkey, gen uint64, depth int, compute func() Plan) (Plan, bool) {
	alphaBits := math.Float64bits(alpha)
	h := keyHash(q, alphaBits, mkey, gen, depth)
	sh := &pc.shards[h>>61]
	sh.mu.Lock()
	for e := sh.chains[h]; e != nil; e = e.hnext {
		if !e.matches(h, q, alphaBits, mkey, gen, depth) {
			continue
		}
		if e.done {
			sh.moveFront(e)
			plan := e.plan
			sh.mu.Unlock()
			pc.met.hits.Inc()
			return plan, true
		}
		ready := e.ready
		sh.mu.Unlock()
		pc.met.sharedWaits.Inc()
		select {
		case <-ready:
		case <-ctx.Done():
			return Plan{}, false
		}
		sh.mu.Lock()
		done, plan := e.done, e.plan
		sh.mu.Unlock()
		if !done {
			// The winner abandoned (its computation panicked out); compute
			// uncached rather than racing to re-insert.
			return Plan{}, false
		}
		pc.met.hits.Inc()
		return plan, true
	}
	// Miss: insert an in-flight placeholder so concurrent callers of the
	// same key wait instead of recomputing, then compute off-lock.
	e := &planEntry{hash: h, q: append([]byte(nil), q...), alphaBits: alphaBits,
		mkey: mkey, gen: gen, depth: depth, ready: make(chan struct{})}
	e.hnext = sh.chains[h]
	sh.chains[h] = e
	sh.mu.Unlock()
	pc.met.misses.Inc()
	committed := false
	defer func() {
		sh.mu.Lock()
		if committed {
			e.done = true
			sh.pushFront(e)
			sh.size++
			for sh.size > pc.perShard && sh.tail != nil {
				old := sh.tail
				sh.unlink(old)
				sh.unchain(old)
				sh.size--
				pc.met.evictions.Inc()
			}
		} else {
			sh.unchain(e)
		}
		sh.mu.Unlock()
		close(e.ready)
	}()
	out := compute()
	// The computed Intervals may alias pooled planner buffers; the cached
	// copy must outlive them. nil stays nil (byte-identical to uncached).
	if out.Intervals != nil {
		ivs := make([]hilbert.Run, len(out.Intervals))
		copy(ivs, out.Intervals)
		out.Intervals = ivs
	}
	e.plan = out
	committed = true
	return out, true
}

// noteBypass counts one cache-bypassed statistical query.
func (pc *planCache) noteBypass() { pc.met.bypasses.Inc() }

// entries counts completed cached plans.
func (pc *planCache) entries() int {
	n := 0
	for i := range pc.shards {
		sh := &pc.shards[i]
		sh.mu.Lock()
		n += sh.size
		sh.mu.Unlock()
	}
	return n
}

// statsSnapshot reads the cache counters.
func (pc *planCache) statsSnapshot() PlanCacheStats {
	return PlanCacheStats{
		Hits:        pc.met.hits.Value(),
		Misses:      pc.met.misses.Value(),
		SharedWaits: pc.met.sharedWaits.Value(),
		Bypasses:    pc.met.bypasses.Value(),
		Evictions:   pc.met.evictions.Value(),
		Entries:     pc.entries(),
	}
}

// RegisterMetrics publishes the cache's counters plus an occupancy
// gauge into r. Call at most once per registry.
func (pc *planCache) RegisterMetrics(r *obs.Registry) {
	r.MustRegister(pc.met.hits, pc.met.misses, pc.met.sharedWaits,
		pc.met.bypasses, pc.met.evictions)
	r.GaugeFunc("s3_plan_cache_entries", "completed plans currently cached",
		func() float64 { return float64(pc.entries()) })
}
