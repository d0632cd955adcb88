package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"slices"
	"sync"

	"s3cbcd/internal/obs"
)

// The plan cache. A statistical plan depends only on (curve, depth,
// model, α, query point), never on the records, so the key is the query
// bytes, α, model key, depth and index generation, and every hit checks
// all of them: answers are byte-identical with the cache on or off, and
// a plan cached against one generation never matches a later one.
//
// One mutex guards two maps, the current and the older generation. A
// hit in the older one moves the entry into the current one; when the
// current one is full the older is dropped whole and the two swap. A
// miss computes off-lock and overwrites whatever entry its hash names:
// a collision or two concurrent misses cost a recomputation, never a
// wrong plan.

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

// PlanCacheStats is a point-in-time report of the plan cache.
type PlanCacheStats struct {
	// Hits counts lookups served from a cached plan.
	Hits int64
	// Misses counts lookups that found no plan and computed one.
	Misses int64
	// Bypasses counts statistical queries that skipped the cache: their
	// model does not implement PlanKeyer, or their context opted out
	// (WithoutPlanCache, ?nocache=1 over HTTP).
	Bypasses int64
	// Evictions counts entries dropped with an older generation.
	Evictions int64
	// Entries is the number of plans currently held.
	Entries int
}

// planKey is the full key of a cached plan and its keyHash.
type planKey struct {
	hash                 uint64
	q                    []byte
	alphaBits, mkey, gen uint64
	depth                int
}

func newPlanKey(q []byte, alpha float64, mkey, gen uint64, depth int) planKey {
	k := planKey{q: q, alphaBits: math.Float64bits(alpha), mkey: mkey, gen: gen, depth: depth}
	k.hash = keyHash(q, k.alphaBits, mkey, gen, depth)
	return k
}

// equal compares every key component; the maps already matched the hash.
func (k *planKey) equal(o *planKey) bool {
	return k.alphaBits == o.alphaBits && k.mkey == o.mkey && k.gen == o.gen &&
		k.depth == o.depth && bytes.Equal(k.q, o.q)
}

// planEntry is one cached plan, immutable once inserted: its key owns
// a copy of the query bytes, its plan a copy of the Intervals.
type planEntry struct {
	key  planKey
	plan Plan
}

// planCache is safe for concurrent use. Its counters are created
// unregistered and published by RegisterMetrics.
type planCache struct {
	mu       sync.Mutex
	cur, old map[uint64]*planEntry
	half     int // entries a generation holds before it rotates

	hits, misses, bypasses, evictions *obs.Counter
}

// newPlanCache builds a cache holding at most entries plans (at least
// two): two generations of entries/2 each.
func newPlanCache(entries int) *planCache {
	half := max(1, entries/2)
	return &planCache{
		cur:  make(map[uint64]*planEntry, half),
		old:  make(map[uint64]*planEntry, half),
		half: half,
		hits: obs.NewCounter("s3_plan_cache_hits_total",
			"statistical plans served from the cache"),
		misses: obs.NewCounter("s3_plan_cache_misses_total",
			"statistical plans computed on a lookup miss and inserted"),
		bypasses: obs.NewCounter("s3_plan_cache_bypass_total",
			"statistical queries that skipped the cache (model without PlanKeyer or ?nocache)"),
		evictions: obs.NewCounter("s3_plan_cache_evictions_total",
			"cached plans dropped with an older generation"),
	}
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

// keyHash names a full key in the maps, mixing every component exactly:
// the query bytes eight at a time, then α, model key, generation and
// depth. A collision costs a recomputation: every hit checks the key.
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

// get returns the plan cached under k. The Plan's Intervals are shared
// and immutable — the same "aliased, copy to retain" contract
// Engine.PlanStat documents — which keeps the hit path allocation-free.
func (pc *planCache) get(k *planKey) (Plan, bool) {
	pc.mu.Lock()
	e := pc.cur[k.hash]
	if e == nil || !e.key.equal(k) {
		if e = pc.old[k.hash]; e == nil || !e.key.equal(k) {
			pc.mu.Unlock()
			pc.misses.Inc()
			return Plan{}, false
		}
		delete(pc.old, k.hash)
		pc.insert(e)
	}
	plan := e.plan
	pc.mu.Unlock()
	pc.hits.Inc()
	return plan, true
}

// put caches a copy of plan under k and returns the copy: the computed
// Intervals may alias pooled planner buffers, and the cached copy must
// outlive them.
func (pc *planCache) put(k *planKey, plan Plan) Plan {
	e := &planEntry{key: planKey{hash: k.hash, q: bytes.Clone(k.q), alphaBits: k.alphaBits,
		mkey: k.mkey, gen: k.gen, depth: k.depth}, plan: plan}
	e.plan.Intervals = slices.Clone(plan.Intervals) // nil stays nil
	pc.mu.Lock()
	pc.insert(e)
	pc.mu.Unlock()
	return e.plan
}

// insert puts e in the current generation, first rotating when that
// would grow it past half: the older generation is dropped and its map
// cleared for reuse as the new current one. Caller holds pc.mu.
func (pc *planCache) insert(e *planEntry) {
	if _, ok := pc.cur[e.key.hash]; !ok && len(pc.cur) >= pc.half {
		pc.evictions.Add(int64(len(pc.old)))
		clear(pc.old)
		pc.cur, pc.old = pc.old, pc.cur
	}
	pc.cur[e.key.hash] = e
}

// entries counts cached plans.
func (pc *planCache) entries() int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return len(pc.cur) + len(pc.old)
}

// statsSnapshot reads the cache counters.
func (pc *planCache) statsSnapshot() PlanCacheStats {
	return PlanCacheStats{Hits: pc.hits.Value(), Misses: pc.misses.Value(),
		Bypasses: pc.bypasses.Value(), Evictions: pc.evictions.Value(), Entries: pc.entries()}
}

// RegisterMetrics publishes the cache's counters plus an occupancy
// gauge into r. Call at most once per registry.
func (pc *planCache) RegisterMetrics(r *obs.Registry) {
	r.MustRegister(pc.hits, pc.misses, pc.bypasses, pc.evictions)
	r.GaugeFunc("s3_plan_cache_entries", "cached plans currently held",
		func() float64 { return float64(pc.entries()) })
}
