// Package httpapi exposes an S³ index over HTTP with a small JSON API, so
// the reference database can be queried as a service (the deployment mode
// of a monitoring installation where extraction happens near the capture
// hardware and the archive index is centralized).
//
// Endpoints:
//
//	GET  /healthz                    liveness plus segment/record counts
//	GET  /stats                      database and index facts
//	GET  /metrics                    Prometheus text exposition of every registered metric
//	POST /search/statistical         {"fingerprint": [..], "alpha": 0.8, "sigma": 20}
//	POST /search/statistical/batch   {"fingerprints": [[..], ..], "alpha": 0.8, "sigma": 20}
//	POST /search/range               {"fingerprint": [..], "epsilon": 95}
//	POST /search/knn                 {"fingerprint": [..], "k": 10}
//
// Fingerprints are arrays of D integers in [0, 255]. Responses carry the
// matches (id, tc, x, y, dist) plus plan/search diagnostics. Non-POST
// requests to the search endpoints get 405.
//
// Appending ?trace=1 to a search request attaches a stage-level
// execution trace ("trace": wall time per plan/refine stage plus
// descent-node/block/candidate work counters) to the response;
// Options.TraceRate additionally samples a fraction of untraced
// searches. Appending ?nocache=1 makes the search bypass the plan cache
// and recompute its plan (answers are byte-identical either way).
// Every request is counted into per-route latency and
// status-class series served at /metrics, alongside the engine's (or
// live index's) own metrics.
//
// A server over a live index (NewLive) additionally accepts writes:
//
//	POST   /ingest       {"records": [{"fingerprint": [..], "id": 7, "tc": 120, "x": 10, "y": 20}, ..]}
//	DELETE /video/{id}   withdraw every stored record of video id
//
// and its /healthz reports segment, memtable and compaction counters
// plus the persistence health (degraded flag, last persistence error,
// retry counters). While the index is in degraded read-only mode —
// persistence failing repeatedly — write endpoints answer 503 with a
// Retry-After header; searches keep serving the last published
// snapshot. Write endpoints run under the same in-flight semaphore as
// searches,
// and ingest bodies are capped (Options.MaxIngestBytes) so concurrent
// large ingests cannot consume unbounded memory; search bodies are
// capped at MaxRequestBody the same way.
//
// Searches run through the core.Searcher surface — a query engine
// (core.Engine) for a static archive, a core.LiveIndex for a
// growing one. Every request executes under its own context (client
// disconnects cancel the search) and the number of requests concurrently
// searching is bounded by a semaphore, so a traffic burst queues instead
// of spawning unbounded concurrent scans. A request queued past its
// deadline is shed with 503 + Retry-After — the same shape degraded
// mode answers — so upstream routers treat both saturation signals
// uniformly. A request whose caller went away (a disconnected client, a
// router's canceled hedge) is recorded as 499 with no body, never as a
// server error.
//
// An inbound X-S3-Deadline header (unix milliseconds) bounds the
// request context: a coordinator scattering a query propagates its
// deadline so backend refinement work is canceled, not wasted, once the
// overall budget expires (the abort answers 503 + Retry-After). During
// graceful shutdown SetDraining flips /healthz to "draining", giving
// health-aware routers a window to move traffic before the listener
// closes.
//
// Every search reply names the geometry the server plans at in
// X-S3-Curve, and a statistical search may carry a plan computed
// elsewhere in X-S3-Plan, which the server then only refines (plan.go).
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"s3cbcd/internal/core"
	"s3cbcd/internal/obs"
	"s3cbcd/internal/store"
)

// DefaultMaxInFlight bounds concurrently executing searches when
// Options.MaxInFlight is zero.
const DefaultMaxInFlight = 64

// Options tunes the server.
type Options struct {
	// Depth is the index partition depth p; 0 selects the heuristic.
	Depth int
	// Shards is ignored. The per-query shard fan-out it selected is gone
	// (DESIGN §3.5b); the field outlives it only until bench/adapter.go,
	// which still sets it, can be edited.
	Shards int
	// Workers bounds the engine's concurrency; 0 selects GOMAXPROCS.
	Workers int
	// MaxInFlight bounds the number of requests concurrently executing
	// searches or writes; 0 selects DefaultMaxInFlight, negative values
	// disable the bound.
	MaxInFlight int
	// MaxIngestBytes caps the request body of POST /ingest; 0 selects
	// DefaultMaxIngestBytes, negative values disable the cap.
	MaxIngestBytes int64
	// Metrics is the registry the server publishes into: per-route
	// request latency/status series, plus the engine's (or live index's)
	// metrics, all served at GET /metrics. nil creates a fresh registry
	// (reachable via Server.Metrics). A registry accommodates one server.
	Metrics *obs.Registry
	// TraceRate samples queries for stage-level tracing: each search
	// carries a trace with probability TraceRate (0 disables sampling; a
	// request can always opt in with ?trace=1). Sampled or requested
	// traces are attached to the response under "trace".
	TraceRate float64
	// TraceSeed seeds the trace sampler, making the accept/reject
	// sequence reproducible.
	TraceSeed int64
	// PlanCache enables the engine's statistical-plan cache (static
	// servers only — a live server inherits the cache its LiveIndex was
	// opened with). Answers are byte-identical with it on or off; a
	// request can bypass it with ?nocache=1.
	PlanCache bool
}

// serverHeader identifies the service on every response.
const serverHeader = "s3cbcd"

// jsonContentType is the Content-Type of every JSON response, error
// bodies included.
const jsonContentType = "application/json; charset=utf-8"

// DefaultMaxIngestBytes bounds an ingest request body when
// Options.MaxIngestBytes is zero.
const DefaultMaxIngestBytes = 32 << 20

// Server wires an index into an http.Handler.
type Server struct {
	search    core.Searcher
	eng       *core.Engine    // nil when serving a live index
	live      *core.LiveIndex // nil when serving a static index
	dims      int
	mux       *http.ServeMux
	sem       chan struct{} // nil = unbounded
	maxIngest int64         // <= 0 = uncapped

	// geo is the geometry plans are computed at; curveHdr its
	// CurveHeader value, stamped on every search reply.
	geo      Geometry
	curveHdr []string

	// draining is flipped by SetDraining during graceful shutdown:
	// /healthz advertises it so a load balancer or the s3router prober
	// stops sending new work before the listener closes, avoiding a
	// burst of connection-refused retries.
	draining atomic.Bool

	reg      *obs.Registry
	sampler  *obs.Sampler
	inflight *obs.Gauge
	traces   *obs.TraceStore
}

// SetDraining marks (or unmarks) the server as draining: /healthz
// reports "draining": true and status "draining", which health-aware
// routers treat as "finish in-flight work, send no new requests".
// Request handling itself is unaffected — the point is to advertise the
// impending shutdown while the listener still accepts connections.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// Draining reports whether SetDraining(true) was called.
func (s *Server) Draining() bool { return s.draining.Load() }

// New returns a ready handler over the given static database.
func New(db *store.DB, opt Options) (*Server, error) {
	ix, err := core.NewIndex(db, opt.Depth)
	if err != nil {
		return nil, err
	}
	eng := core.NewEngineOpts(ix, core.EngineOptions{Workers: opt.Workers, PlanCache: opt.PlanCache})
	s := newServer(opt)
	s.search, s.eng, s.dims = eng, eng, db.Dims()
	s.setGeometry(Geometry{db.Dims(), eng.Curve().Order(), eng.Depth()})
	eng.RegisterMetrics(s.reg)
	return s, nil
}

// NewLive returns a handler over a live segmented index, additionally
// exposing the ingest and delete endpoints. Options.Depth is ignored
// (the live index carries its own depth).
func NewLive(li *core.LiveIndex, opt Options) *Server {
	s := newServer(opt)
	s.search, s.live, s.dims = li, li, li.Curve().Dims()
	s.setGeometry(Geometry{li.Curve().Dims(), li.Curve().Order(), li.Depth()})
	if opt.MaxIngestBytes == 0 {
		opt.MaxIngestBytes = DefaultMaxIngestBytes
	}
	s.maxIngest = opt.MaxIngestBytes
	li.RegisterMetrics(s.reg)
	// Writes share the in-flight semaphore with searches, so a burst of
	// ingests queues under the same admission control instead of
	// spawning unbounded concurrent decodes and merges.
	s.handle("POST /ingest", "/ingest", s.bounded(s.handleIngest))
	s.handle("DELETE /video/{id}", "/video/{id}", s.bounded(s.handleDeleteVideo))
	s.handle("POST /flush", "/flush", s.bounded(s.handleFlush))
	s.handle("POST /compact", "/compact", s.bounded(s.handleCompact))
	return s
}

// newServer builds the shared mux, semaphore, registry and sampler.
func newServer(opt Options) *Server {
	s := &Server{mux: http.NewServeMux(), reg: opt.Metrics}
	if s.reg == nil {
		s.reg = obs.NewRegistry()
	}
	if opt.TraceRate > 0 {
		s.sampler = obs.NewSampler(opt.TraceRate, opt.TraceSeed)
	}
	s.traces = obs.NewTraceStore(0)
	s.traces.RegisterMetrics(s.reg)
	s.inflight = s.reg.Gauge("s3_http_inflight_requests",
		"requests currently being handled (admission queue included)")
	if opt.MaxInFlight == 0 {
		opt.MaxInFlight = DefaultMaxInFlight
	}
	if opt.MaxInFlight > 0 {
		s.sem = make(chan struct{}, opt.MaxInFlight)
	}
	s.mux.Handle("GET /metrics", s.reg.Handler())
	s.handle("GET /healthz", "/healthz", s.handleHealthz)
	s.handle("GET /stats", "/stats", s.handleStats)
	s.handle("POST /search/statistical", "/search/statistical", s.curved(s.bounded(s.handleStat)))
	s.handle("POST /search/statistical/batch", "/search/statistical/batch", s.curved(s.bounded(s.handleStatBatch)))
	s.handle("POST /search/range", "/search/range", s.curved(s.bounded(s.handleRange)))
	s.handle("POST /search/knn", "/search/knn", s.curved(s.bounded(s.handleKNN)))
	return s
}

// setGeometry records the geometry the server plans at; the depth is
// fixed for the life of the process.
func (s *Server) setGeometry(g Geometry) {
	s.geo, s.curveHdr = g, []string{g.String()}
}

// curved stamps a search route's replies with CurveHeader, from which a
// router learns the geometry to plan its fleet's queries at.
func (s *Server) curved(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header()[CurveHeader] = s.curveHdr
		h(w, r)
	}
}

// handle registers h on the mux pattern wrapped in per-route
// instrumentation labelled with route (the pattern's path, a fixed, low
// cardinality set — never the raw request URL).
func (s *Server) handle(pattern, route string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, s.instrument(route, h))
}

// instrument wraps a handler with the route's latency histogram and
// status-class counters, created eagerly so every route renders in
// /metrics from the first scrape. Latency covers time queued on the
// admission semaphore (instrument wraps bounded).
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	hist := s.reg.Histogram(fmt.Sprintf("s3_http_request_seconds{route=%q}", route),
		"request wall time by route", obs.LatencyBuckets())
	classes := [4]*obs.Counter{}
	for i, class := range []string{"2xx", "3xx", "4xx", "5xx"} {
		classes[i] = s.reg.Counter(
			fmt.Sprintf("s3_http_requests_total{route=%q,code=%q}", route, class),
			"requests served by route and status class")
	}
	return func(w http.ResponseWriter, r *http.Request) {
		s.inflight.Add(1)
		defer s.inflight.Add(-1)
		t0 := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		hist.ObserveSince(t0)
		if i := sw.code/100 - 2; i >= 0 && i < len(classes) {
			classes[i].Inc()
		}
	}
}

// statusWriter captures the response status code for the route metrics.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Metrics returns the server's registry (also served at GET /metrics),
// for callers that add their own series — process gauges, store I/O
// counters — next to the server's.
func (s *Server) Metrics() *obs.Registry { return s.reg }

// traceFor decides whether this request's search is traced: always when
// an upstream coordinator sent a sampled X-S3-Trace context (the trace
// continues the caller's identity, so the caller can graft this
// process's report into its tree), always when the client asks with
// ?trace=1, otherwise by the sampler. A malformed or hostile trace
// header is indistinguishable from no header: the request falls back to
// the local sampling decision with a fresh root trace. It returns the
// context to run the search under and the trace to report (nil when
// untraced). ?nocache=1 additionally makes the search bypass the plan
// cache (the recompute escape hatch; answers are identical either way).
func (s *Server) traceFor(r *http.Request, route string) (context.Context, *obs.Trace) {
	ctx := r.Context()
	if r.URL.Query().Get("nocache") == "1" {
		ctx = core.WithoutPlanCache(ctx)
	}
	var tr *obs.Trace
	if h := r.Header.Get(obs.TraceHeader); h != "" {
		if sc, ok := obs.ParseTraceHeader(h); ok && sc.Sampled {
			tr = obs.NewTraceFrom(sc)
		}
	}
	if tr == nil && (r.URL.Query().Get("trace") == "1" || s.sampler.Sample()) {
		tr = obs.NewTrace()
	}
	if tr == nil {
		return ctx, nil
	}
	tr.SetName("s3serve " + route)
	return obs.WithTrace(ctx, tr), tr
}

// finishTrace closes out a traced request: the failure (if any) is
// recorded, the report is built once, filed into the debug trace store
// and returned for in-band attachment to the response. Returns a zero
// report for untraced requests.
func (s *Server) finishTrace(tr *obs.Trace, err error) obs.TraceReport {
	if tr == nil {
		return obs.TraceReport{}
	}
	if err != nil {
		tr.SetError(err.Error())
	}
	rep := tr.Report()
	s.traces.Add(rep)
	return rep
}

// TraceStore returns the server's bounded debug trace store, for
// mounting /debug/traces on a debug listener.
func (s *Server) TraceStore() *obs.TraceStore { return s.traces }

// Engine returns the server's query engine (nil for a live server).
func (s *Server) Engine() *core.Engine { return s.eng }

// Live returns the server's live index (nil for a static server).
func (s *Server) Live() *core.LiveIndex { return s.live }

// DeadlineHeader is the inbound request header carrying an absolute
// deadline as unix milliseconds. A coordinator (cmd/s3router) sets it
// on scattered subrequests so the backend's own context expires when
// the client's overall budget does: refinement work the caller can no
// longer use is canceled instead of completed and discarded.
const DeadlineHeader = "X-S3-Deadline"

// withDeadline derives the request context from an inbound
// DeadlineHeader, when present. The bool is false (with a 400 already
// written) when the header exists but is not unix milliseconds.
func withDeadline(w http.ResponseWriter, r *http.Request) (*http.Request, context.CancelFunc, bool) {
	h := r.Header.Get(DeadlineHeader)
	if h == "" {
		return r, func() {}, true
	}
	ms, err := strconv.ParseInt(h, 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%s: %q is not a unix-milliseconds deadline", DeadlineHeader, h)
		return r, func() {}, false
	}
	ctx, cancel := context.WithDeadline(r.Context(), time.UnixMilli(ms))
	return r.WithContext(ctx), cancel, true
}

// ServeHTTP implements http.Handler. The Server header is set here,
// before mux dispatch, so 404/405 responses carry it too, and the
// deadline header is honored here so every endpoint — searches, writes,
// even health checks — runs under the propagated budget.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Server", serverHeader)
	r, cancel, ok := withDeadline(w, r)
	if !ok {
		return
	}
	defer cancel()
	s.mux.ServeHTTP(w, r)
}

// shedRetryAfter is the Retry-After hint (seconds) on 503s shed from
// the in-flight semaphore: the queue drains at request latency, so a
// quick re-probe is appropriate — unlike the longer degraded-mode hint.
const shedRetryAfter = 1

// statusClientClosedRequest is nginx's 499, recorded for a request
// whose caller went away: a disconnected client, or a router canceling
// a losing hedge. It lands in the route's 4xx counter, not 5xx.
const statusClientClosedRequest = 499

// clientGone writes statusClientClosedRequest, and no body since nobody
// reads it, when the request's own context was canceled — the caller
// left. An expired deadline is not that: the caller still waits for an
// answer it may retry elsewhere.
func clientGone(w http.ResponseWriter, r *http.Request) bool {
	if !errors.Is(r.Context().Err(), context.Canceled) {
		return false
	}
	w.WriteHeader(statusClientClosedRequest)
	return true
}

// bounded gates a handler on the in-flight semaphore. A request whose
// propagated deadline expires while queued is shed with 503 +
// Retry-After without touching the engine, the same shape degraded
// mode uses, so an upstream router treats both saturation signals
// uniformly; one whose client goes away while queued is recorded as
// statusClientClosedRequest.
func (s *Server) bounded(h http.HandlerFunc) http.HandlerFunc {
	if s.sem == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
		case <-r.Context().Done():
			if clientGone(w, r) {
				return
			}
			w.Header().Set("Retry-After", strconv.Itoa(shedRetryAfter))
			httpError(w, http.StatusServiceUnavailable, "request shed while queued: %v", r.Context().Err())
			return
		}
		h(w, r)
	}
}

// searchRequest is the common request body.
type searchRequest struct {
	Fingerprint  []int   `json:"fingerprint"`
	Fingerprints [][]int `json:"fingerprints"`
	Alpha        float64 `json:"alpha"`
	Sigma        float64 `json:"sigma"`
	Epsilon      float64 `json:"epsilon"`
	K            int     `json:"k"`
	MaxLeaves    int     `json:"maxLeaves"`
}

// fingerprint validates and converts one request fingerprint.
func fingerprint(raw []int, dims int) ([]byte, error) {
	if len(raw) != dims {
		return nil, fmt.Errorf("fingerprint has %d components, index needs %d", len(raw), dims)
	}
	fp := make([]byte, dims)
	for i, v := range raw {
		if v < 0 || v > 255 {
			return nil, fmt.Errorf("component %d = %d outside [0,255]", i, v)
		}
		fp[i] = byte(v)
	}
	return fp, nil
}

// decode reads a search request body, capped at MaxRequestBody: an
// oversized one answers 413 before anything is buffered past the cap.
func decode(w http.ResponseWriter, r *http.Request) (*searchRequest, bool) {
	var req searchRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxRequestBody)).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", MaxRequestBody)
			return nil, false
		}
		httpError(w, http.StatusBadRequest, "invalid JSON: %v", err)
		return nil, false
	}
	return &req, true
}

func httpError(w http.ResponseWriter, code int, format string, args ...interface{}) {
	w.Header().Set("Content-Type", jsonContentType)
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func reply(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", jsonContentType)
	json.NewEncoder(w).Encode(v)
}

// searchError maps a search failure to its HTTP shape. A caller that
// went away is recorded as statusClientClosedRequest. Any other context
// error — a propagated X-S3-Deadline budget expired mid-refine —
// answers 503 + Retry-After: the query was valid and sheddable load,
// not a client mistake, and a coordinator may usefully retry it against
// a sibling replica (with a fresh budget). Anything else is a request
// defect: 400.
func searchError(w http.ResponseWriter, r *http.Request, err error) {
	if clientGone(w, r) {
		return
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		w.Header().Set("Retry-After", strconv.Itoa(shedRetryAfter))
		httpError(w, http.StatusServiceUnavailable, "search aborted: %v", err)
		return
	}
	httpError(w, http.StatusBadRequest, "%v", err)
}

// degradedRetryAfter is the Retry-After hint (seconds) sent with 503
// responses while the live index is degraded: long enough for a few
// backoff-spaced persistence retries to run, short enough that clients
// probe again promptly once storage recovers.
const degradedRetryAfter = 5

// writeError maps a live-index write failure to its HTTP shape: a
// degraded index answers 503 + Retry-After (the condition is transient
// by design — the background retry loop is working on it), a closed one
// 503 without the hint, anything else 500.
func writeError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, core.ErrDegraded):
		w.Header().Set("Retry-After", strconv.Itoa(degradedRetryAfter))
		httpError(w, http.StatusServiceUnavailable, "%v", err)
	case errors.Is(err, core.ErrClosed):
		httpError(w, http.StatusServiceUnavailable, "%v", err)
	default:
		httpError(w, http.StatusInternalServerError, "%v", err)
	}
}

// planCacheField adds the searcher's plan cache health fields to a
// response body under "planCache"; nothing when the cache is disabled.
func (s *Server) planCacheField(body map[string]interface{}) {
	st, ok := s.search.PlanCacheStats()
	if !ok {
		return
	}
	hitRate := 0.0
	if lookups := st.Hits + st.Misses; lookups > 0 {
		hitRate = float64(st.Hits) / float64(lookups)
	}
	body["planCache"] = map[string]interface{}{
		"hits":      st.Hits,
		"misses":    st.Misses,
		"bypasses":  st.Bypasses,
		"evictions": st.Evictions,
		"entries":   st.Entries,
		"hitRate":   hitRate,
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	var body map[string]interface{}
	if s.live != nil {
		st := s.live.Stats()
		if st.Degraded {
			// Degraded outranks draining: a router must know reads-only
			// is all this backend offers, whether or not it is leaving.
			status = "degraded"
		}
		body = map[string]interface{}{
			"gen":             st.Gen,
			"records":         st.LiveRecords,
			"segments":        st.Segments,
			"memtableRecords": st.MemtableRecords,
			"tombstonedIds":   st.TombstonedIDs,
			"ingested":        st.Ingested,
			"deletes":         st.Deletes,
			"compactions":     st.Compactions,
			"degraded":        st.Degraded,
			"dirty":           st.Dirty,
			"lastPersistErr":  st.LastPersistErr,
			"persistFailures": st.PersistFailures,
			"persistRetries":  st.PersistRetries,
		}
		if st.SketchSegments > 0 || st.SketchConsults > 0 {
			body["sketchSegments"] = st.SketchSegments
			body["sketchBytes"] = st.SketchBytes
			body["sketchConsults"] = st.SketchConsults
			body["segmentsSkipped"] = st.SegmentsSkipped
		}
		if st.CodecSegments > 0 || st.QuantizedRejects > 0 {
			body["codecSegments"] = st.CodecSegments
			body["quantizedRejects"] = st.QuantizedRejects
			body["fallbackReads"] = st.FallbackReads
		}
		if st.SkippedBlocks > 0 || st.BytesSaved > 0 {
			body["skippedBlocks"] = st.SkippedBlocks
			body["bytesSaved"] = st.BytesSaved
		}
		if st.ColdSegments > 0 || st.Cache.BudgetBytes > 0 {
			body["coldSegments"] = st.ColdSegments
			body["coldRecords"] = st.ColdRecords
			hitRate := 0.0
			if lookups := st.Cache.Hits + st.Cache.Misses; lookups > 0 {
				hitRate = float64(st.Cache.Hits) / float64(lookups)
			}
			body["cache"] = map[string]interface{}{
				"budgetBytes": st.Cache.BudgetBytes,
				"bytes":       st.Cache.Bytes,
				"blocks":      st.Cache.Blocks,
				"hits":        st.Cache.Hits,
				"misses":      st.Cache.Misses,
				"evictions":   st.Cache.Evictions,
				"loadedBytes": st.Cache.LoadedBytes,
				"hitRate":     hitRate,
			}
		}
	} else {
		body = map[string]interface{}{
			"records": s.eng.Len(),
			// Cumulative partition-tree nodes visited by every plan this
			// engine has computed: the filtering-side work counter that the
			// frontier planner exists to keep small.
			"descentNodes": s.eng.DescentNodes(),
		}
	}
	body["status"], body["draining"] = status, s.draining.Load()
	s.planCacheField(body)
	reply(w, body)
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	var body map[string]interface{}
	if s.live != nil {
		st := s.live.Stats()
		skipRate := 0.0
		if st.SketchConsults > 0 {
			skipRate = float64(st.SegmentsSkipped) / float64(st.SketchConsults)
		}
		body = map[string]interface{}{
			"records":          st.LiveRecords,
			"dims":             s.dims,
			"order":            s.live.Curve().Order(),
			"depth":            s.live.Depth(),
			"segments":         st.Segments,
			"segmentRecords":   st.SegmentRecords,
			"coldSegments":     st.ColdSegments,
			"coldRecords":      st.ColdRecords,
			"sketchSegments":   st.SketchSegments,
			"sketchBytes":      st.SketchBytes,
			"sketchConsults":   st.SketchConsults,
			"segmentsSkipped":  st.SegmentsSkipped,
			"skipRate":         skipRate,
			"codecSegments":    st.CodecSegments,
			"skippedBlocks":    st.SkippedBlocks,
			"quantizedRejects": st.QuantizedRejects,
			"fallbackReads":    st.FallbackReads,
			"bytesSaved":       st.BytesSaved,
		}
	} else {
		body = map[string]interface{}{
			"records": s.eng.Len(),
			"dims":    s.dims,
			"order":   s.eng.Curve().Order(),
			"depth":   s.eng.Depth(),
			"workers": s.eng.Workers(),
		}
	}
	s.planCacheField(body)
	reply(w, body)
}

// statQuery builds the statistical query from request parameters.
func statQuery(req *searchRequest, dims int) (core.StatQuery, error) {
	if req.Sigma <= 0 {
		return core.StatQuery{}, fmt.Errorf("sigma must be > 0")
	}
	return core.StatQuery{Alpha: req.Alpha,
		Model: core.IsoNormal{D: dims, Sigma: req.Sigma}}, nil
}

func (s *Server) handleStat(w http.ResponseWriter, r *http.Request) {
	req, ok := decode(w, r)
	if !ok {
		return
	}
	fp, err := fingerprint(req.Fingerprint, s.dims)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	sq, err := statQuery(req, s.dims)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	runs, planned, err := decodePlanHeader(r.Header.Get(PlanHeader), s.geo)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%s: %v", PlanHeader, err)
		return
	}
	ctx, tr := s.traceFor(r, "/search/statistical")
	var (
		matches []core.Match
		plan    core.Plan
	)
	if planned {
		// The plan came with the query (a router planned once for its
		// fleet): refine it, and check it there.
		matches, plan, err = s.search.RefineStat(ctx, fp, sq, runs)
	} else {
		matches, plan, err = s.search.SearchStat(ctx, fp, sq)
	}
	if err != nil {
		s.finishTrace(tr, err)
		searchError(w, r, err)
		return
	}
	out := NewBody(0)
	out.B = appendMatches(append(out.B, `"matches":`...), matches)
	out.B = AppendPlan(append(out.B, `,"plan":`...), plan)
	s.sendSearch(w, tr, out)
}

func (s *Server) handleStatBatch(w http.ResponseWriter, r *http.Request) {
	req, ok := decode(w, r)
	if !ok {
		return
	}
	if len(req.Fingerprints) == 0 {
		httpError(w, http.StatusBadRequest, "fingerprints must be a non-empty array")
		return
	}
	queries := make([][]byte, len(req.Fingerprints))
	for i, raw := range req.Fingerprints {
		fp, err := fingerprint(raw, s.dims)
		if err != nil {
			httpError(w, http.StatusBadRequest, "fingerprint %d: %v", i, err)
			return
		}
		queries[i] = fp
	}
	sq, err := statQuery(req, s.dims)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ctx, tr := s.traceFor(r, "/search/statistical/batch")
	results, err := s.search.SearchStatBatch(ctx, queries, sq)
	if err != nil {
		s.finishTrace(tr, err)
		searchError(w, r, err)
		return
	}
	out := NewBody(0)
	out.B = append(out.B, `"results":[`...)
	for i, ms := range results {
		if i > 0 {
			out.B = append(out.B, ',')
		}
		out.B = appendMatches(out.B, ms)
	}
	out.B = append(out.B, ']')
	s.sendSearch(w, tr, out)
}

func (s *Server) handleRange(w http.ResponseWriter, r *http.Request) {
	req, ok := decode(w, r)
	if !ok {
		return
	}
	fp, err := fingerprint(req.Fingerprint, s.dims)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ctx, tr := s.traceFor(r, "/search/range")
	matches, plan, err := s.search.SearchRange(ctx, fp, req.Epsilon)
	if err != nil {
		s.finishTrace(tr, err)
		searchError(w, r, err)
		return
	}
	out := NewBody(0)
	out.B = strconv.AppendInt(append(out.B, `"blocks":`...), int64(plan.Blocks), 10)
	out.B = appendMatches(append(out.B, `,"matches":`...), matches)
	s.sendSearch(w, tr, out)
}

func (s *Server) handleKNN(w http.ResponseWriter, r *http.Request) {
	req, ok := decode(w, r)
	if !ok {
		return
	}
	fp, err := fingerprint(req.Fingerprint, s.dims)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ctx, tr := s.traceFor(r, "/search/knn")
	matches, stats, err := s.search.SearchKNN(ctx, fp, req.K, req.MaxLeaves)
	if err != nil {
		s.finishTrace(tr, err)
		searchError(w, r, err)
		return
	}
	out := NewBody(0)
	out.B = strconv.AppendBool(append(out.B, `"exact":`...), stats.Exact)
	out.B = appendMatches(append(out.B, `,"matches":`...), matches)
	out.B = strconv.AppendInt(append(out.B, `,"scanned":`...), int64(stats.Scanned), 10)
	s.sendSearch(w, tr, out)
}

// recordJSON is the wire form of one ingested record.
type recordJSON struct {
	Fingerprint []int  `json:"fingerprint"`
	ID          uint32 `json:"id"`
	TC          uint32 `json:"tc"`
	X           uint16 `json:"x"`
	Y           uint16 `json:"y"`
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if s.maxIngest > 0 {
		r.Body = http.MaxBytesReader(w, r.Body, s.maxIngest)
	}
	var req struct {
		Records []recordJSON `json:"records"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge,
				"ingest body exceeds %d bytes; split the batch", tooBig.Limit)
			return
		}
		httpError(w, http.StatusBadRequest, "invalid JSON: %v", err)
		return
	}
	if len(req.Records) == 0 {
		httpError(w, http.StatusBadRequest, "records must be a non-empty array")
		return
	}
	recs := make([]store.Record, len(req.Records))
	for i, rj := range req.Records {
		fp, err := fingerprint(rj.Fingerprint, s.dims)
		if err != nil {
			httpError(w, http.StatusBadRequest, "record %d: %v", i, err)
			return
		}
		recs[i] = store.Record{FP: fp, ID: rj.ID, TC: rj.TC, X: rj.X, Y: rj.Y}
	}
	if err := s.live.Ingest(recs); err != nil {
		writeError(w, err)
		return
	}
	st := s.live.Stats()
	reply(w, map[string]interface{}{"ingested": len(recs), "records": st.LiveRecords, "gen": st.Gen})
}

func (s *Server) handleDeleteVideo(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 32)
	if err != nil {
		httpError(w, http.StatusBadRequest, "video id %q is not a uint32", r.PathValue("id"))
		return
	}
	if err := s.live.DeleteVideo(uint32(id)); err != nil {
		writeError(w, err)
		return
	}
	st := s.live.Stats()
	reply(w, map[string]interface{}{"deleted": id, "records": st.LiveRecords, "gen": st.Gen})
}

func (s *Server) handleFlush(w http.ResponseWriter, _ *http.Request) {
	if err := s.live.Flush(); err != nil {
		writeError(w, err)
		return
	}
	reply(w, map[string]interface{}{"gen": s.live.Gen()})
}

func (s *Server) handleCompact(w http.ResponseWriter, _ *http.Request) {
	if err := s.live.Compact(); err != nil {
		writeError(w, err)
		return
	}
	st := s.live.Stats()
	reply(w, map[string]interface{}{"segments": st.Segments, "compactions": st.Compactions, "gen": st.Gen})
}
