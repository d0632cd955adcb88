// Package router implements a fault-tolerant scatter/gather coordinator
// over s3serve shard replicas: the multi-node deployment of the S³
// index, where the reference corpus is split into key-range shard
// groups (contiguous slices of the global Hilbert order) and each group
// is served by one or more s3serve replicas.
//
// A search request is scattered to every group, each group's subquery
// driven against its replica set with per-request deadline propagation
// (X-S3-Deadline), capped-exponential-backoff retries against sibling
// replicas, hedged requests once the in-flight attempt outlives the
// fastest replica's recent latency fence, and a consecutive-failure
// circuit breaker plus bounded in-flight budget in front of every
// backend. Results merge byte-identically to a single-node engine
// holding the whole corpus: the store's canonical record order makes
// stat/range/batch merging pure concatenation in group-index order,
// and k-NN a k-way merge by distance. So the router never decodes a
// match (wire.go): a backend
// body is validated once with json.Valid, its members are located as
// raw slices, the groups' match arrays are copied into the reply as
// bytes, and a k-NN element is read only for its distance. When a
// group cannot answer, the partial-result policy decides: strict
// (default) fails the request with 503, degrade returns the reachable
// groups' results plus a missingShards list. A statistical query is
// planned once, at the router, and every group only refines that plan
// (plan.go).
package router

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"s3cbcd/internal/core"
	"s3cbcd/internal/httpapi"
	"s3cbcd/internal/obs"
)

// deadlineHeader propagates the remaining request budget to backends
// (and is honored inbound, so routers stack).
const deadlineHeader = httpapi.DeadlineHeader

// Partial-result policies.
const (
	// PartialStrict fails the whole request when any shard group is
	// unavailable: the answer is complete or it is an error.
	PartialStrict = "strict"
	// PartialDegrade answers with the reachable groups' results and a
	// missingShards list naming the group indices that dropped out.
	PartialDegrade = "degrade"
)

// Defaults for the zero Options values.
const (
	DefaultMaxInFlight      = 64
	DefaultRetries          = 2
	DefaultRetryBackoff     = 5 * time.Millisecond
	DefaultHedgeQuantile    = 0.95
	DefaultHedgeMin         = time.Millisecond
	DefaultRequestTimeout   = 10 * time.Second
	DefaultBreakerThreshold = 5
	DefaultBreakerCooldown  = 500 * time.Millisecond
	DefaultProbeInterval    = time.Second
)

// backendInFlight bounds concurrent requests per backend; the backend
// client's idle pool keeps as many connections to each.
const backendInFlight = 32

// maxRetryBackoff caps the doubling retry backoff.
const maxRetryBackoff = 100 * time.Millisecond

// shedRetryAfter is the Retry-After hint on load-shed 503s, matching
// the backend HTTP layer's.
const shedRetryAfter = 1

// probeTimeoutCap bounds a single health probe regardless of interval.
const probeTimeoutCap = 2 * time.Second

// Options configures a Router. The zero value of every field but
// Groups selects the default; negative values disable where noted.
type Options struct {
	// Groups is the placement: Groups[g] lists the replica base URLs
	// serving shard group g, in key-range order. Required. A URL may
	// appear in several groups (a backend serving more than one shard);
	// its breaker, budget and latency window are shared.
	Groups [][]string

	// MaxInFlight bounds concurrently coordinated client requests;
	// excess is shed immediately with 503 + Retry-After, never queued
	// (0 = DefaultMaxInFlight, < 0 = unlimited).
	MaxInFlight int

	// Retries is the per-group budget of sibling retries after
	// retryable failures (0 = DefaultRetries, < 0 = no retries).
	Retries int
	// RetryBackoff is the base backoff before the first retry, doubling
	// per retry up to 100ms (0 = DefaultRetryBackoff).
	RetryBackoff time.Duration

	// HedgeQuantile is the recent-latency quantile the hedge fence
	// starts from: a hedge fires at a sibling once the in-flight attempt
	// outlives Q(HedgeQuantile) + 3·IQR of the fastest replica's window
	// (0 = DefaultHedgeQuantile, < 0 = hedging off).
	HedgeQuantile float64
	// HedgeMin floors the hedge delay (0 = DefaultHedgeMin).
	HedgeMin time.Duration

	// RequestTimeout caps a client request end to end, tightened
	// further by an inbound X-S3-Deadline (0 = DefaultRequestTimeout,
	// < 0 = none).
	RequestTimeout time.Duration

	// BreakerThreshold is the consecutive-failure count that trips a
	// backend's circuit breaker (0 = DefaultBreakerThreshold, < 0 =
	// breaker disabled). BreakerCooldown is the open → half-open delay.
	BreakerThreshold int
	BreakerCooldown  time.Duration

	// ProbeInterval is the /healthz polling period (0 =
	// DefaultProbeInterval, < 0 = prober disabled).
	ProbeInterval time.Duration

	// Partial is the default partial-result policy, PartialStrict or
	// PartialDegrade ("" = strict); ?partial= overrides per request.
	Partial string

	// TraceRate samples client requests for distributed tracing: each
	// search carries a trace with probability TraceRate (0 disables
	// sampling; a request can always opt in with ?trace=1 or an inbound
	// sampled X-S3-Trace header). Traced requests propagate context to
	// backends and assemble their in-band reports into one span tree.
	TraceRate float64
	// TraceSeed seeds the trace sampler.
	TraceSeed int64

	// Metrics receives the s3_router_* families (nil = new registry).
	Metrics *obs.Registry
	// Logger receives structured logs (nil = slog.Default()).
	Logger *slog.Logger
}

// Router is the scatter/gather coordinator; it serves the same search
// API as a single s3serve (plus its own /healthz, /stats, /metrics),
// so clients need not know whether they talk to one node or a fleet.
type Router struct {
	opt    Options
	groups [][]*backend
	// backends is each unique backend once, in first-appearance order.
	backends []*backend
	// rrs rotates each group's replica preference for load spread.
	rrs []atomic.Uint64

	client       *http.Client
	mux          *http.ServeMux
	reg          *obs.Registry
	met          routerMetrics
	log          *slog.Logger
	sem          chan struct{} // nil = unlimited
	probeTimeout time.Duration
	sampler      *obs.Sampler
	traces       *obs.TraceStore

	// planner plans statistical requests at the fleet's learned geometry
	// (plan.go); nil until every group has reported the same one.
	// learnMu serializes its re-derivation.
	planner atomic.Pointer[core.Planner]
	learnMu sync.Mutex

	stop chan struct{}
	once sync.Once
	wg   sync.WaitGroup
}

// New builds a Router over the given placement and starts its health
// prober. Close releases the prober.
func New(opt Options) (*Router, error) {
	if len(opt.Groups) == 0 {
		return nil, errors.New("router: at least one shard group required")
	}
	applyDefaults(&opt)
	if opt.Partial != PartialStrict && opt.Partial != PartialDegrade {
		return nil, fmt.Errorf("router: partial policy %q (want %q or %q)", opt.Partial, PartialStrict, PartialDegrade)
	}
	r := &Router{
		opt:  opt,
		mux:  http.NewServeMux(),
		reg:  opt.Metrics,
		log:  opt.Logger,
		stop: make(chan struct{}),
	}
	if r.reg == nil {
		r.reg = obs.NewRegistry()
	}
	if r.log == nil {
		r.log = slog.Default()
	}
	r.met = newRouterMetrics(r.reg)
	if opt.TraceRate > 0 {
		r.sampler = obs.NewSampler(opt.TraceRate, opt.TraceSeed)
	}
	r.traces = obs.NewTraceStore(0)
	r.traces.RegisterMetrics(r.reg)
	if opt.MaxInFlight > 0 {
		r.sem = make(chan struct{}, opt.MaxInFlight)
	}
	r.probeTimeout = opt.ProbeInterval
	if r.probeTimeout <= 0 || r.probeTimeout > probeTimeoutCap {
		r.probeTimeout = probeTimeoutCap
	}

	byURL := make(map[string]*backend)
	for g, urls := range opt.Groups {
		if len(urls) == 0 {
			return nil, fmt.Errorf("router: group %d has no replicas", g)
		}
		seen := make(map[string]bool, len(urls))
		grp := make([]*backend, 0, len(urls))
		for _, u := range urls {
			u = strings.TrimRight(u, "/")
			if u == "" {
				return nil, fmt.Errorf("router: group %d has an empty backend URL", g)
			}
			if seen[u] {
				return nil, fmt.Errorf("router: group %d lists %q twice", g, u)
			}
			seen[u] = true
			be := byURL[u]
			if be == nil {
				be = &backend{
					url:    u,
					lat:    obs.NewWindow(0),
					br:     newBreaker(opt.BreakerThreshold, opt.BreakerCooldown, r.met.breakerTrips),
					budget: backendInFlight,
				}
				backendSeries(r.reg, be)
				byURL[u] = be
				r.backends = append(r.backends, be)
			}
			grp = append(grp, be)
		}
		r.groups = append(r.groups, grp)
	}
	r.rrs = make([]atomic.Uint64, len(r.groups))
	r.client = &http.Client{Transport: backendTransport(len(r.backends))}

	r.mux.Handle("GET /metrics", r.reg.Handler())
	r.handle("GET /healthz", "/healthz", r.handleHealthz)
	r.handle("GET /stats", "/stats", r.handleStats)
	for _, rt := range []*route{&statRoute, &batchRoute, &rangeRoute, &knnRoute} {
		r.handle("POST "+rt.path, rt.path, r.search(rt))
	}

	if opt.ProbeInterval > 0 {
		r.startProber(opt.ProbeInterval)
	}
	return r, nil
}

// backendTransport clones http.DefaultTransport with an idle pool that
// keeps a connection for every request the in-flight budget admits to
// each backend. The default pool keeps two per host, so every request
// beyond the second concurrent one dialed anew and its connection was
// closed again once idle.
func backendTransport(backends int) *http.Transport {
	t, ok := http.DefaultTransport.(*http.Transport)
	if !ok {
		t = &http.Transport{}
	}
	t = t.Clone()
	t.MaxIdleConnsPerHost = backendInFlight
	t.MaxIdleConns = backendInFlight * backends
	return t
}

func applyDefaults(opt *Options) {
	if opt.MaxInFlight == 0 {
		opt.MaxInFlight = DefaultMaxInFlight
	}
	switch {
	case opt.Retries == 0:
		opt.Retries = DefaultRetries
	case opt.Retries < 0:
		opt.Retries = 0
	}
	if opt.RetryBackoff <= 0 {
		opt.RetryBackoff = DefaultRetryBackoff
	}
	if opt.HedgeQuantile == 0 {
		opt.HedgeQuantile = DefaultHedgeQuantile
	}
	if opt.HedgeMin <= 0 {
		opt.HedgeMin = DefaultHedgeMin
	}
	if opt.RequestTimeout == 0 {
		opt.RequestTimeout = DefaultRequestTimeout
	}
	if opt.BreakerThreshold == 0 {
		opt.BreakerThreshold = DefaultBreakerThreshold
	}
	if opt.BreakerCooldown <= 0 {
		opt.BreakerCooldown = DefaultBreakerCooldown
	}
	if opt.ProbeInterval == 0 {
		opt.ProbeInterval = DefaultProbeInterval
	}
	if opt.Partial == "" {
		opt.Partial = PartialStrict
	}
}

// Close stops the health prober and waits for its goroutines.
func (r *Router) Close() {
	r.once.Do(func() { close(r.stop) })
	r.wg.Wait()
}

// Metrics returns the router's registry (also served at GET /metrics).
func (r *Router) Metrics() *obs.Registry { return r.reg }

// Traces returns the router's bounded debug trace store, for mounting
// /debug/traces on a debug listener.
func (r *Router) Traces() *obs.TraceStore { return r.traces }

func (r *Router) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Server", "s3router")
	r.mux.ServeHTTP(w, req)
}

// handle registers h wrapped in the route's latency histogram and
// status-class counters, mirroring the backend HTTP layer.
func (r *Router) handle(pattern, route string, h http.HandlerFunc) {
	hist, classes := routeMetrics(r.reg, route)
	r.mux.HandleFunc(pattern, func(w http.ResponseWriter, req *http.Request) {
		r.met.inflight.Add(1)
		defer r.met.inflight.Add(-1)
		t0 := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, req)
		hist.ObserveSince(t0)
		if i := sw.code/100 - 2; i >= 0 && i < len(classes) {
			classes[i].Inc()
		}
	})
}

// statusWriter captures the response status for the route metrics.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

const jsonContentType = "application/json; charset=utf-8"

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", jsonContentType)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...interface{}) {
	w.Header().Set("Content-Type", jsonContentType)
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// traceFor decides whether this client request is traced: always when
// an upstream router sent a sampled X-S3-Trace context (routers stack),
// always on ?trace=1, otherwise by the sampler. A malformed header is
// indistinguishable from no header. Returns nil when untraced.
func (r *Router) traceFor(req *http.Request, route string) *obs.Trace {
	var tr *obs.Trace
	if h := req.Header.Get(obs.TraceHeader); h != "" {
		if sc, ok := obs.ParseTraceHeader(h); ok && sc.Sampled {
			tr = obs.NewTraceFrom(sc)
		}
	}
	if tr == nil && (req.URL.Query().Get("trace") == "1" || r.sampler.Sample()) {
		tr = obs.NewTrace()
	}
	if tr != nil {
		tr.SetName("s3router " + route)
	}
	return tr
}

// finishTrace closes out a traced request: the failure (if any) is
// recorded, the assembled report is built once, filed into the debug
// trace store and returned for in-band attachment to the response.
func (r *Router) finishTrace(tr *obs.Trace, err error) obs.TraceReport {
	if tr == nil {
		return obs.TraceReport{}
	}
	if err != nil {
		tr.SetError(err.Error())
	}
	rep := tr.Report()
	r.traces.Add(rep)
	return rep
}

// search builds the scatter/gather handler for one search route.
func (r *Router) search(rt *route) http.HandlerFunc {
	path := rt.path
	return func(w http.ResponseWriter, req *http.Request) {
		t0 := time.Now()
		// Admission: take a slot now or shed now. The router never queues
		// excess load — queued requests burn their deadlines waiting and
		// then scatter doomed subqueries at the fleet.
		if r.sem != nil {
			select {
			case r.sem <- struct{}{}:
				defer func() { <-r.sem }()
			default:
				r.met.shed.Inc()
				// A shed is over before any span opens; it still must not
				// vanish from the trace views, so a traced shed files an
				// errored root with the reason annotated.
				if tr := r.traceFor(req, path); tr != nil {
					tr.Annotate(0, "shed", "router at capacity")
					r.finishTrace(tr, fmt.Errorf("router at capacity (%d in flight)", cap(r.sem)))
				}
				w.Header().Set("Retry-After", strconv.Itoa(shedRetryAfter))
				httpError(w, http.StatusServiceUnavailable, "router at capacity (%d in flight)", cap(r.sem))
				return
			}
		}

		tr := r.traceFor(req, path)

		partial := r.opt.Partial
		if p := req.URL.Query().Get("partial"); p != "" {
			if p != PartialStrict && p != PartialDegrade {
				r.finishTrace(tr, fmt.Errorf("partial=%q invalid", p))
				httpError(w, http.StatusBadRequest, "partial=%q (want %q or %q)", p, PartialStrict, PartialDegrade)
				return
			}
			partial = p
		}

		// Read one byte past the cap so an oversized body is rejected
		// outright rather than silently truncated into corrupt JSON that
		// would surface as a confusing backend 400.
		body, err := io.ReadAll(io.LimitReader(req.Body, httpapi.MaxRequestBody+1))
		if err != nil {
			r.finishTrace(tr, err)
			httpError(w, http.StatusBadRequest, "reading request: %v", err)
			return
		}
		if len(body) > httpapi.MaxRequestBody {
			r.finishTrace(tr, errors.New("request body too large"))
			httpError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", httpapi.MaxRequestBody)
			return
		}

		ctx := req.Context()
		if h := req.Header.Get(deadlineHeader); h != "" {
			ms, err := strconv.ParseInt(h, 10, 64)
			if err != nil {
				r.finishTrace(tr, fmt.Errorf("bad %s header", deadlineHeader))
				httpError(w, http.StatusBadRequest, "%s: %q is not a unix-milliseconds deadline", deadlineHeader, h)
				return
			}
			var cancel context.CancelFunc
			ctx, cancel = context.WithDeadline(ctx, time.UnixMilli(ms))
			defer cancel()
		}
		if r.opt.RequestTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, r.opt.RequestTimeout)
			defer cancel()
		}

		if tr != nil {
			// Admission + parse are over; the span records what the request
			// cost before any backend work began.
			tr.SpanSince("admission", 0, t0)
			ctx = obs.WithTrace(ctx, tr)
		}

		sub := &subrequest{path: path, body: body, parse: rt.parser()}
		var planMember []byte
		if rt == &statRoute {
			sub.plan, planMember = r.plan(tr, body)
		}
		outs, errs := r.scatter(ctx, sub)

		// A defective query fails identically on every shard; surface the
		// first backend 4xx as-is rather than as an availability problem.
		for _, err := range errs {
			var be *backendError
			if errors.As(err, &be) && !be.retryable && be.status >= 400 && be.status < 500 {
				r.finishTrace(tr, err)
				httpError(w, be.status, "%s", be.msg)
				return
			}
		}

		var missing []int
		var lastErr error
		for g, err := range errs {
			if err != nil {
				missing = append(missing, g)
				lastErr = err
			}
		}
		if len(missing) > 0 {
			if partial == PartialStrict || len(missing) == len(r.groups) {
				r.finishTrace(tr, lastErr)
				// A request whose own budget expired (inbound X-S3-Deadline
				// or RequestTimeout) is a timeout, not fleet unavailability:
				// 504 and no Retry-After, so clients don't retry a query
				// that cannot fit its own deadline.
				if errors.Is(lastErr, context.DeadlineExceeded) {
					httpError(w, http.StatusGatewayTimeout,
						"shard groups %v unavailable: %v", missing, lastErr)
					return
				}
				w.Header().Set("Retry-After", strconv.Itoa(shedRetryAfter))
				httpError(w, http.StatusServiceUnavailable,
					"shard groups %v unavailable: %v", missing, lastErr)
				return
			}
			r.met.partials.Inc()
			r.met.missingShards.Add(int64(len(missing)))
			if tr != nil {
				tr.Annotate(0, "missingShards", fmt.Sprint(missing))
			}
			r.log.Warn("degraded response", "route", path, "missingShards", missing, "err", lastErr)
		}
		t1 := time.Now()
		if planMember != nil {
			// Every group refined the router's plan, so its encoding is the
			// reply's plan member, byte for byte what a backend writes.
			for _, rp := range outs {
				if rp != nil {
					rp.plan = planMember
				}
			}
		}
		out := newMerged(outs, missing)
		k := 0
		if rt.k != nil {
			k = rt.k(body)
		}
		out.B = rt.merge(out.B, outs, missing, k)
		if tr != nil {
			tr.SpanSince("merge", 0, t1)
			// The report sorts last, as "trace" did among map keys.
			if raw, err := json.Marshal(r.finishTrace(tr, nil)); err == nil {
				out.B = append(key(out.B, "trace"), raw...)
			}
		}
		out.Send(w)
	}
}

// scatter fans the request out to every group concurrently.
func (r *Router) scatter(ctx context.Context, sub *subrequest) ([]*reply, []error) {
	outs := make([]*reply, len(r.groups))
	errs := make([]error, len(r.groups))
	var wg sync.WaitGroup
	for g := range r.groups {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			outs[g], errs[g] = r.groupDo(ctx, g, sub)
		}(g)
	}
	wg.Wait()
	return outs, errs
}

// handleHealthz reports the router's view of the fleet: down when some
// group has no reachable replica (strict queries will fail), degraded
// when any backend is less than healthy, ok otherwise.
func (r *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	status := "ok"
	for _, be := range r.backends {
		if be.health() != healthHealthy {
			status = "degraded"
			break
		}
	}
	for _, grp := range r.groups {
		up := false
		for _, be := range grp {
			if be.health() != healthDown {
				up = true
				break
			}
		}
		if !up {
			status = "down"
			break
		}
	}
	backends := make([]map[string]interface{}, len(r.backends))
	for i, be := range r.backends {
		backends[i] = map[string]interface{}{
			"url":      be.url,
			"health":   be.health().String(),
			"breaker":  be.br.snapshot().String(),
			"records":  be.records.Load(),
			"inflight": be.inflight.Load(),
		}
	}
	writeJSON(w, map[string]interface{}{
		"status":   status,
		"groups":   len(r.groups),
		"backends": backends,
	})
}

// handleStats aggregates fleet shape: per-group records use the largest
// replica report (replicas hold the same data; a lagging probe reports
// 0, not less data), and curve is the geometry the router plans
// statistical queries at, null until learned.
func (r *Router) handleStats(w http.ResponseWriter, _ *http.Request) {
	var records int64
	for _, grp := range r.groups {
		var best int64
		for _, be := range grp {
			if n := be.records.Load(); n > best {
				best = n
			}
		}
		records += best
	}
	writeJSON(w, map[string]interface{}{
		"groups":   len(r.groups),
		"backends": len(r.backends),
		"records":  records,
		"curve":    r.geometry(),
	})
}
