package main

// The one seam to the program under test: this is the only file of the
// harness that imports s3cbcd packages. It builds each workload's
// topology with the option values cmd/s3serve and cmd/s3router apply by
// default — plan cache on, sketch and cold codec on, tracing off,
// default admission bounds, default memtable and compaction trigger,
// default router retries/hedging/breakers/budgets — and lists every
// deliberate departure here:
//
//   - depth is pinned (the -depth flag) to DefaultDepth(corpus size) on
//     every server, so the three read-only topologies compute the same
//     plans and their answers can be compared by digest (a fleet
//     operator must do the same: a shard backend's own default depth
//     follows its shard's size);
//   - cold_mixed serves with -cold-records 1 and a block cache of 10 %
//     of the record bytes (the default 64 MiB would hold the whole
//     corpus and measure nothing);
//   - the router's health prober is off (-probe-interval -1): a static
//     healthy fleet, and probes are noise in a latency measurement;
//   - the preload of the two live workloads is written by an offline
//     loader configuration (memtable = segment size, no compaction),
//     then reopened with the serving defaults above;
//   - logs are discarded.
//
// The harness constructs no s3_* metric family: it reads the servers'
// own /metrics text, so scripts/check_metrics.sh stays green.

import (
	"context"
	"fmt"
	iofs "io/fs"
	"net/http"
	"path/filepath"
	"time"

	s3 "s3cbcd"
	"s3cbcd/internal/core"
	"s3cbcd/internal/hilbert"
	"s3cbcd/internal/httpapi"
	"s3cbcd/internal/obs"
	"s3cbcd/internal/router"
	"s3cbcd/internal/store"
)

// s3index's default section-table granularity for archive files.
const archiveSectionBits = 12

func curve() *hilbert.Curve { return hilbert.MustNew(dims, order) }

// pinnedDepth is the partition depth every server of a run uses.
func pinnedDepth(records int) int { return core.DefaultDepth(curve(), records) }

// libraryRangeRadius is the library's matched-expectation radius; the
// tests pin the harness constant rangeEps to it.
func libraryRangeRadius() float64 { return s3.MatchedRangeRadius(dims, sigma, alpha) }

func storeRecords(recs []record) []store.Record {
	out := make([]store.Record, len(recs))
	for i, r := range recs {
		out[i] = store.Record{FP: r.FP, ID: r.ID, TC: r.TC}
	}
	return out
}

// hooks are the harness's recorders around the program's layers; the
// zero value measures nothing and leaves the topology exactly as the
// commands would build it.
type hooks struct {
	// Wrap, when set, wraps every http.Handler of the topology
	// (layer is "router" or "httpapi").
	Wrap func(layer string, h http.Handler) http.Handler
	// FS, when set, observes every read, write and sync crossing the
	// store filesystem seam.
	FS func(op string, start time.Time, d time.Duration, n int)
}

// topology is one running deployment on loopback listeners.
type topology struct {
	URL string // the address clients talk to
	// MetricsURLs are the /metrics endpoints of every process.
	MetricsURLs []string

	groups  []core.Searcher // one searcher per key-range group (replica 0)
	planner *core.Index     // plans at the pinned depth; no records needed
	live    *core.LiveIndex
	cache   *store.BlockCache
	closers []func() error
}

// Close stops every listener and releases the index.
func (t *topology) Close() error {
	var first error
	for i := len(t.closers) - 1; i >= 0; i-- {
		if err := t.closers[i](); err != nil && first == nil {
			first = err
		}
	}
	t.closers = nil
	return first
}

func (t *topology) serve(layer string, h http.Handler, hk hooks) (string, error) {
	if hk.Wrap != nil {
		h = hk.Wrap(layer, h)
	}
	url, stop, err := startServer(h)
	if err != nil {
		return "", err
	}
	t.closers = append(t.closers, stop)
	t.MetricsURLs = append(t.MetricsURLs, url+"/metrics")
	return url, nil
}

func newPlanner(depth int) (*core.Index, error) {
	db, err := store.Build(curve(), nil)
	if err != nil {
		return nil, err
	}
	return core.NewIndex(db, depth)
}

// countingFS is s3serve's filesystem stack, with the harness's timing
// observer underneath when one is installed.
func countingFS(hk hooks, reg *obs.Registry) *store.CountingFS {
	var inner store.FS = store.OSFS
	if hk.FS != nil {
		inner = timingFS{inner: inner, observe: hk.FS}
	}
	cfs := store.NewCountingFS(inner)
	cfs.RegisterMetrics(reg)
	return cfs
}

// writeArchives is the s3index step, the index build of the static
// workloads: it builds the curve-ordered database over recs and writes
// it as `shards` contiguous key-range files, the way an operator cuts a
// corpus for a fleet. One shard is the whole archive.
func writeArchives(dir string, recs []record, shards int) ([]string, error) {
	db, err := store.Build(curve(), storeRecords(recs))
	if err != nil {
		return nil, err
	}
	var paths []string
	for s := 0; s < shards; s++ {
		lo, hi := db.Len()*s/shards, db.Len()*(s+1)/shards
		part := db
		if shards > 1 {
			chunk := make([]store.Record, 0, hi-lo)
			for i := lo; i < hi; i++ {
				chunk = append(chunk, store.Record{FP: db.FP(i), ID: db.ID(i), TC: db.TC(i), X: db.X(i), Y: db.Y(i)})
			}
			if part, err = store.Build(curve(), chunk); err != nil {
				return nil, err
			}
		}
		path := filepath.Join(dir, fmt.Sprintf("shard%d.s3db", s))
		if err := part.WriteFile(path, archiveSectionBits); err != nil {
			return nil, err
		}
		paths = append(paths, path)
	}
	return paths, nil
}

// openStatic starts one s3serve over an archive file: open, load all,
// build the engine, listen.
func (t *topology) openStatic(path string, depth int, hk hooks) (string, *httpapi.Server, error) {
	reg := obs.NewRegistry()
	cfs := countingFS(hk, reg)
	fl, err := store.OpenFS(cfs, path)
	if err != nil {
		return "", nil, err
	}
	db, err := fl.LoadAll()
	if err != nil {
		fl.Close()
		return "", nil, err
	}
	opt := httpapi.Options{Metrics: reg, PlanCache: true, Depth: depth}
	if starts := fl.ShardStarts(); starts != nil {
		opt.Shards = len(starts) - 1
	}
	fl.Close()
	srv, err := httpapi.New(db, opt)
	if err != nil {
		return "", nil, err
	}
	url, err := t.serve("httpapi", srv, hk)
	return url, srv, err
}

// openResident is the resident_batch topology: one static s3serve.
func openResident(archive string, depth int, hk hooks) (*topology, error) {
	t := &topology{}
	url, srv, err := t.openStatic(archive, depth, hk)
	if err != nil {
		t.Close()
		return nil, err
	}
	t.URL, t.groups, t.planner = url, []core.Searcher{srv.Engine()}, srv.Engine().Index()
	return t, nil
}

// openFleet is the fleet_single topology: s3router over one key-range
// group per archive, `replicas` s3serve processes each.
func openFleet(archives []string, replicas, depth int, hk hooks) (*topology, error) {
	t := &topology{}
	var groups [][]string
	for _, path := range archives {
		var urls []string
		for r := 0; r < replicas; r++ {
			url, srv, err := t.openStatic(path, depth, hk)
			if err != nil {
				t.Close()
				return nil, err
			}
			if r == 0 {
				t.groups = append(t.groups, srv.Engine())
				t.planner = srv.Engine().Index()
			}
			urls = append(urls, url)
		}
		groups = append(groups, urls)
	}
	rt, err := router.New(router.Options{
		Groups:        groups,
		ProbeInterval: -1,
		Metrics:       obs.NewRegistry(),
		Logger:        obs.NopLogger(),
	})
	if err != nil {
		t.Close()
		return nil, err
	}
	t.closers = append(t.closers, func() error { rt.Close(); return nil })
	if t.URL, err = t.serve("router", rt, hk); err != nil {
		t.Close()
		return nil, err
	}
	return t, nil
}

// liveServe are the options s3serve -live applies by default, plus the
// pinned depth and (cold_mixed) the cold tier with its cache budget.
type liveServe struct {
	Depth      int
	Cold       bool
	CacheBytes int64
}

func (ls liveServe) options(fs store.FS) core.LiveOptions {
	opt := core.LiveOptions{Depth: ls.Depth, FS: fs, Sketch: true, ColdCodec: true, PlanCache: true}
	if ls.Cold {
		opt.ColdRecords = 1
	}
	return opt
}

// preloadLive is the offline loader: it writes recs into dir as
// `segments` sealed segments (memtable = segment size, compaction
// never triggered), flushes and closes. The write path is the
// program's own: hilbert encode, sort, seal, sketch, codec, manifest
// commit.
func preloadLive(dir string, recs []record, segments int, ls liveServe) error {
	per := (len(recs) + segments - 1) / segments
	opt := ls.options(store.OSFS)
	opt.MemtableRecords = per
	opt.CompactSegments = 1 << 30
	li, err := core.OpenLiveIndex(curve(), dir, opt)
	if err != nil {
		return err
	}
	for lo := 0; lo < len(recs); lo += per {
		hi := lo + per
		if hi > len(recs) {
			hi = len(recs)
		}
		if err := li.Ingest(storeRecords(recs[lo:hi])); err != nil {
			li.Close()
			return err
		}
	}
	if err := li.Flush(); err != nil {
		li.Close()
		return err
	}
	return li.Close()
}

// openLive is s3serve -live over dir.
func openLive(dir string, ls liveServe, hk hooks) (*topology, error) {
	t := &topology{}
	reg := obs.NewRegistry()
	opt := ls.options(countingFS(hk, reg))
	if ls.Cold {
		t.cache = store.NewBlockCache(ls.CacheBytes)
		t.cache.RegisterMetrics(reg)
		opt.Cache = t.cache
	}
	li, err := core.OpenLiveIndex(curve(), dir, opt)
	if err != nil {
		return nil, err
	}
	t.live = li
	t.closers = append(t.closers, li.Close)
	if t.planner, err = newPlanner(ls.Depth); err != nil {
		t.Close()
		return nil, err
	}
	t.groups = []core.Searcher{li}
	srv := httpapi.NewLive(li, httpapi.Options{Metrics: reg, PlanCache: true})
	if t.URL, err = t.serve("httpapi", srv, hk); err != nil {
		t.Close()
		return nil, err
	}
	return t, nil
}

// openReference builds the oracle the served answers are compared
// with: a fresh all-resident engine over recs, searched in process.
func openReference(recs []record, depth int) (*topology, error) {
	db, err := store.Build(curve(), storeRecords(recs))
	if err != nil {
		return nil, err
	}
	ix, err := core.NewIndex(db, depth)
	if err != nil {
		return nil, err
	}
	return &topology{groups: []core.Searcher{core.NewEngineOpts(ix, core.EngineOptions{})}, planner: ix}, nil
}

func toMatches(ms []core.Match) []match {
	out := make([]match, len(ms))
	for i, m := range ms {
		out[i] = match{ID: m.ID, TC: m.TC, X: m.X, Y: m.Y}
	}
	return out
}

func statQuery() core.StatQuery {
	return core.StatQuery{Alpha: alpha, Model: core.IsoNormal{D: dims, Sigma: sigma}}
}

// SearchDirect replays a search request straight into the engine, the
// way the HTTP handler would after decoding: one call per key-range
// group. It returns the longest group's time (groups run in parallel
// in a fleet, so the slowest one blocks the merge) and the answers
// concatenated in group order, which is how the router merges.
func (t *topology) SearchDirect(r *request) (time.Duration, [][]match, error) {
	ctx := context.Background()
	res := make([][]match, len(r.Queries))
	var longest time.Duration
	for _, s := range t.groups {
		t0 := time.Now()
		var (
			got [][]core.Match
			err error
		)
		switch r.Kind {
		case kindStatBatch:
			fps := make([][]byte, len(r.Queries))
			for i, q := range r.Queries {
				fps[i] = q.FP
			}
			got, err = s.SearchStatBatch(ctx, fps, statQuery())
		case kindStatSingle:
			var ms []core.Match
			ms, _, err = s.SearchStat(ctx, r.Queries[0].FP, statQuery())
			got = [][]core.Match{ms}
		case kindRange:
			var ms []core.Match
			ms, _, err = s.SearchRange(ctx, r.Queries[0].FP, rangeEps)
			got = [][]core.Match{ms}
		default:
			return 0, nil, fmt.Errorf("SearchDirect: %v is not a search", r.Kind)
		}
		if d := time.Since(t0); d > longest {
			longest = d
		}
		if err != nil {
			return 0, nil, err
		}
		for i, ms := range got {
			res[i] = append(res[i], toMatches(ms)...)
		}
	}
	return longest, res, nil
}

// WriteDirect applies a write request to the live index directly.
func (t *topology) WriteDirect(r *request) error {
	switch r.Kind {
	case kindIngest:
		return t.live.Ingest(storeRecords(r.Records))
	case kindDelete:
		return t.live.DeleteVideo(r.ID)
	}
	return fmt.Errorf("WriteDirect: %v is not a write", r.Kind)
}

// planCounts are the exact work counts of one plan (core.Plan).
type planCounts struct {
	DescentNodes, FilterIters, Blocks, Intervals int
}

// QueryDirect runs one fingerprint alone, plan cache bypassed, against
// every group: the per-query sequential cost the batch executor
// amortises. It returns the longest group's search time, the plan's
// work counts (the same on every group: a plan depends on curve
// geometry and depth, not on data) and the matches found.
func (t *topology) QueryDirect(q query, kind reqKind) (time.Duration, planCounts, int, error) {
	ctx := core.WithoutPlanCache(context.Background())
	var (
		longest time.Duration
		pc      planCounts
		matches int
	)
	for _, s := range t.groups {
		t0 := time.Now()
		var (
			ms   []core.Match
			plan core.Plan
			err  error
		)
		if kind == kindRange {
			ms, plan, err = s.SearchRange(ctx, q.FP, rangeEps)
		} else {
			ms, plan, err = s.SearchStat(ctx, q.FP, statQuery())
		}
		if d := time.Since(t0); d > longest {
			longest = d
		}
		if err != nil {
			return 0, pc, 0, err
		}
		pc = planCounts{plan.DescentNodes, plan.FilterIters, plan.Blocks, len(plan.Intervals)}
		matches += len(ms)
	}
	return longest, pc, matches, nil
}

// PlanDirect times the filtering step alone (the paper's T_f) at the
// pinned depth, uncached.
func (t *topology) PlanDirect(q query, kind reqKind) (time.Duration, error) {
	t0 := time.Now()
	var err error
	if kind == kindRange {
		_, err = t.planner.PlanRange(q.FP, rangeEps)
	} else {
		_, err = t.planner.PlanStat(q.FP, statQuery())
	}
	return time.Since(t0), err
}

// encodeNs times one Hilbert key encode, averaged over recs: the
// ingest-side share of the curve.
func encodeNs(recs []record) float64 {
	c := curve()
	pt := make([]uint32, dims)
	var sink int
	t0 := time.Now()
	for _, r := range recs {
		for j, v := range r.FP {
			pt[j] = uint32(v)
		}
		k := c.Encode(pt)
		sink += len(k)
	}
	_ = sink
	return float64(time.Since(t0).Nanoseconds()) / float64(len(recs))
}

// Stats reads the operator-facing stats objects of a live topology
// (LiveIndex.Stats and BlockCache.Stats) as flat counters; empty for
// static topologies.
func (t *topology) Stats() map[string]float64 {
	out := map[string]float64{}
	if t.live == nil {
		return out
	}
	st := t.live.Stats()
	out["live.segments"] = float64(st.Segments)
	out["live.records"] = float64(st.LiveRecords)
	out["live.compactions"] = float64(st.Compactions)
	out["live.persist_retries"] = float64(st.PersistRetries)
	out["live.persist_failures"] = float64(st.PersistFailures)
	out["live.sketch_consults"] = float64(st.SketchConsults)
	out["live.segments_skipped"] = float64(st.SegmentsSkipped)
	out["cold.skipped_blocks"] = float64(st.SkippedBlocks)
	out["cold.quantized_rejects"] = float64(st.QuantizedRejects)
	out["cold.fallback_reads"] = float64(st.FallbackReads)
	out["cold.bytes_saved"] = float64(st.BytesSaved)
	if t.cache != nil {
		cs := t.cache.Stats()
		out["cache.hits"] = float64(cs.Hits)
		out["cache.misses"] = float64(cs.Misses)
		out["cache.evictions"] = float64(cs.Evictions)
		out["cache.loaded_bytes"] = float64(cs.LoadedBytes)
	}
	return out
}

// timingFS reports every read, write and sync crossing the store
// filesystem seam to the harness's observer.
type timingFS struct {
	inner   store.FS
	observe func(op string, start time.Time, d time.Duration, n int)
}

func (f timingFS) Open(path string) (store.Handle, error) {
	h, err := f.inner.Open(path)
	if err != nil {
		return nil, err
	}
	return timingHandle{h, f.observe}, nil
}

func (f timingFS) Create(path string) (store.Handle, error) {
	h, err := f.inner.Create(path)
	if err != nil {
		return nil, err
	}
	return timingHandle{h, f.observe}, nil
}

func (f timingFS) Rename(o, n string) error                    { return f.inner.Rename(o, n) }
func (f timingFS) Remove(path string) error                    { return f.inner.Remove(path) }
func (f timingFS) ReadDir(dir string) ([]iofs.DirEntry, error) { return f.inner.ReadDir(dir) }

func (f timingFS) SyncDir(dir string) error {
	t0 := time.Now()
	err := f.inner.SyncDir(dir)
	f.observe("sync", t0, time.Since(t0), 0)
	return err
}

type timingHandle struct {
	store.Handle
	observe func(op string, start time.Time, d time.Duration, n int)
}

func (h timingHandle) Read(p []byte) (int, error) {
	t0 := time.Now()
	n, err := h.Handle.Read(p)
	h.observe("read", t0, time.Since(t0), n)
	return n, err
}

func (h timingHandle) ReadAt(p []byte, off int64) (int, error) {
	t0 := time.Now()
	n, err := h.Handle.ReadAt(p, off)
	h.observe("read", t0, time.Since(t0), n)
	return n, err
}

func (h timingHandle) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := h.Handle.Write(p)
	h.observe("write", t0, time.Since(t0), n)
	return n, err
}

func (h timingHandle) Sync() error {
	t0 := time.Now()
	err := h.Handle.Sync()
	h.observe("sync", t0, time.Since(t0), 0)
	return err
}

var (
	_ store.FS     = timingFS{}
	_ store.Handle = timingHandle{}
)
