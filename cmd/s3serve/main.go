// Command s3serve exposes an S3DB reference database over HTTP with a
// JSON search API (statistical, batch statistical, range and k-NN
// queries), the deployment mode where fingerprint extraction happens near
// the capture hardware and the archive index is a central service.
//
// Usage:
//
//	s3serve -db archive.s3db -addr :8080
//
//	curl localhost:8080/healthz
//	curl localhost:8080/stats
//	curl localhost:8080/metrics
//	curl -X POST localhost:8080/search/statistical \
//	     -d '{"fingerprint":[...20 ints...],"alpha":0.8,"sigma":20}'
//	curl -X POST localhost:8080/search/statistical/batch \
//	     -d '{"fingerprints":[[...],[...]],"alpha":0.8,"sigma":20}'
//
// With -live DIR the server runs a live segmented index persisted in DIR
// instead of a read-only database file: ingest and delete endpoints are
// enabled and the index reopens to its last committed snapshot.
//
//	s3serve -live /var/lib/s3/live -dims 20 -addr :8080
//
//	curl -X POST localhost:8080/ingest \
//	     -d '{"records":[{"fingerprint":[...],"id":7,"tc":120}]}'
//	curl -X DELETE localhost:8080/video/7
//
// Live-mode persistence failures are retried in the background with
// capped exponential backoff (-compact-backoff sets the base delay);
// after -compact-retries consecutive failures the index serves degraded
// read-only — writes answer 503 with Retry-After, /healthz reports
// status "degraded" with the last persistence error — until a retry
// commits.
//
// The partition depth p is fixed for the life of the process (-depth).
// Learn p_min = argmin T_f(p) + T_r(p) offline, as the paper does at the
// start of the retrieval stage (s3.Index.Tune, examples/tuning), and
// pass it here. Filtering-step plans are cached (-plan-cache, on by
// default; a request bypasses the cache with ?nocache=1), so a
// statistical answer depends only on the query, never on load history.
//
// Observability: GET /metrics serves Prometheus text covering the
// engine or live index, store I/O (every byte and fsync crossing the
// filesystem seam) and per-route HTTP latency/status series. A search
// with ?trace=1 returns a stage-level execution trace, and -trace-rate
// samples a fraction of all searches the same way. -debug-addr starts a
// second, operator-only listener with net/http/pprof and a /metrics
// alias — keep it off the service port. Logs are structured
// (log/slog); -log-json switches them to JSON.
//
// The server carries read/write timeouts and drains in-flight requests
// before exiting on SIGINT/SIGTERM. Shutdown is router-friendly: the
// first -drain-grace of it only advertises "draining" on /healthz while
// the listener keeps serving, so a health-probing coordinator
// (cmd/s3router) moves traffic to sibling replicas before any
// connection is refused.
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"s3cbcd/internal/core"
	"s3cbcd/internal/hilbert"
	"s3cbcd/internal/httpapi"
	"s3cbcd/internal/obs"
	"s3cbcd/internal/store"
)

func main() {
	var (
		dbPath         = flag.String("db", "archive.s3db", "database file (static mode)")
		liveDir        = flag.String("live", "", "live index directory (enables ingest/delete; overrides -db)")
		dims           = flag.Int("dims", 20, "fingerprint dimension (live mode)")
		order          = flag.Int("order", 8, "bits per component (live mode)")
		addr           = flag.String("addr", ":8080", "listen address")
		depth          = flag.Int("depth", 0, "partition depth p (0 = auto)")
		workers        = flag.Int("workers", 0, "batch-search worker bound (0 = GOMAXPROCS)")
		maxInFlight    = flag.Int("max-inflight", 0, "concurrent searches bound (0 = default, <0 = unlimited)")
		compactBackoff = flag.Duration("compact-backoff", 0,
			"base delay between persistence/compaction retries, live mode (0 = default)")
		compactRetries = flag.Int("compact-retries", 0,
			"consecutive persistence failures before degraded read-only mode, live mode (0 = default, <0 = never degrade)")
		coldRecords = flag.Int("cold-records", 0,
			"serve sealed segments of at least this many records from disk through the block cache, live mode (0 = all resident)")
		cacheMB = flag.Int("cache-mb", 64,
			"block cache budget in MiB for cold segments (with -cold-records)")
		sketch = flag.Bool("sketch", true,
			"build per-segment sketches and skip segments a plan provably misses, live mode")
		coldCodec = flag.Bool("cold-codec", true,
			"write quantized record codecs into cold-eligible segments and reject candidates on quantized bounds, live mode")
		planCache = flag.Bool("plan-cache", true,
			"cache filtering-step plans for repeated queries (answers are identical; ?nocache=1 bypasses per request)")
		traceRate = flag.Float64("trace-rate", 0,
			"fraction of searches carrying a stage-level trace (0 = only ?trace=1 requests)")
		traceSeed = flag.Int64("trace-seed", 0, "trace sampler seed (reproducible sampling)")
		debugAddr = flag.String("debug-addr", "",
			"operator listener with /debug/pprof/*, /debug/traces and /metrics (empty = disabled)")
		logJSON      = flag.Bool("log-json", false, "emit logs as JSON instead of text")
		readTimeout  = flag.Duration("read-timeout", 10*time.Second, "HTTP read timeout")
		writeTimeout = flag.Duration("write-timeout", 30*time.Second, "HTTP write timeout")
		drainTimeout = flag.Duration("drain-timeout", 15*time.Second, "graceful shutdown drain timeout")
		drainGrace   = flag.Duration("drain-grace", 3*time.Second,
			"on shutdown, advertise draining on /healthz for this long before closing the listener (0 = immediate)")
	)
	flag.Parse()

	logger := newLogger(*logJSON)

	// Every durable byte flows through the counting FS, so /metrics
	// reports store I/O in both modes.
	cfs := store.NewCountingFS(store.OSFS)
	reg := obs.NewRegistry()
	cfs.RegisterMetrics(reg)
	opt := httpapi.Options{
		MaxInFlight: *maxInFlight,
		Metrics:     reg,
		TraceRate:   *traceRate,
		TraceSeed:   *traceSeed,
		PlanCache:   *planCache,
	}

	var srv *httpapi.Server
	if *liveDir != "" {
		curve, err := hilbert.New(*dims, *order)
		if err != nil {
			fatal(logger, "invalid geometry", err)
		}
		lopt := core.LiveOptions{
			Depth:        *depth,
			Workers:      *workers,
			FS:           cfs,
			RetryBackoff: *compactBackoff,
			RetryLimit:   *compactRetries,
			Logger:       logger,
			ColdRecords:  *coldRecords,
			Sketch:       *sketch,
			ColdCodec:    *coldCodec,
			PlanCache:    *planCache,
		}
		if *coldRecords > 0 {
			cache := store.NewBlockCache(int64(*cacheMB) << 20)
			cache.RegisterMetrics(reg)
			lopt.Cache = cache
		}
		li, err := core.OpenLiveIndex(curve, *liveDir, lopt)
		if err != nil {
			fatal(logger, "open live index", err)
		}
		defer func() {
			if err := li.Close(); err != nil {
				logger.Error("close live index", "err", err)
			}
		}()
		srv = httpapi.NewLive(li, opt)
		st := li.Stats()
		logger.Info("serving live index", "dir", *liveDir, "records", st.LiveRecords,
			"dims", *dims, "gen", st.Gen, "segments", st.Segments,
			"coldSegments", st.ColdSegments, "cacheBudgetBytes", st.Cache.BudgetBytes,
			"sketchSegments", st.SketchSegments, "codecSegments", st.CodecSegments,
			"degraded", st.Degraded, "planCache", *planCache)
	} else {
		fl, err := store.OpenFS(cfs, *dbPath)
		if err != nil {
			fatal(logger, "open database", err)
		}
		db, err := fl.LoadAll()
		if err != nil {
			fl.Close()
			fatal(logger, "load database", err)
		}
		fl.Close()
		opt.Depth, opt.Workers = *depth, *workers
		srv, err = httpapi.New(db, opt)
		if err != nil {
			fatal(logger, "build index", err)
		}
		logger.Info("serving static database", "path", *dbPath, "records", db.Len(),
			"dims", db.Dims(), "workers", srv.Engine().Workers(),
			"planCache", *planCache)
	}

	if *debugAddr != "" {
		go serveDebug(logger, *debugAddr, reg, srv.TraceStore())
	}

	hs := &http.Server{
		Addr:         *addr,
		Handler:      srv,
		ReadTimeout:  *readTimeout,
		WriteTimeout: *writeTimeout,
		IdleTimeout:  2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	logger.Info("listening", "addr", *addr)

	select {
	case err := <-errCh:
		fatal(logger, "serve", err)
	case <-ctx.Done():
		stop()
		// Flip /healthz to draining and hold the listener open for the
		// grace period: a health-aware router (cmd/s3router) observes the
		// drain on its next probe and moves traffic to sibling replicas
		// before connections start being refused, instead of discovering
		// the shutdown through a burst of failed requests.
		srv.SetDraining(true)
		logger.Info("signal received, draining", "grace", *drainGrace, "timeout", *drainTimeout)
		if *drainGrace > 0 {
			time.Sleep(*drainGrace)
		}
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := hs.Shutdown(shutdownCtx); err != nil {
			fatal(logger, "shutdown", err)
		}
		if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(logger, "serve", err)
		}
	}
}

func newLogger(asJSON bool) *slog.Logger {
	var h slog.Handler
	if asJSON {
		h = slog.NewJSONHandler(os.Stderr, nil)
	} else {
		h = slog.NewTextHandler(os.Stderr, nil)
	}
	return slog.New(h).With("service", "s3serve")
}

func fatal(logger *slog.Logger, msg string, err error) {
	logger.Error(msg, "err", err)
	os.Exit(1)
}

// serveDebug runs the operator-only listener: pprof profiles, the
// trace store (recent/slowest/errored finished traces as JSON) and a
// /metrics alias. It registers pprof on its own mux — never on
// http.DefaultServeMux — so profiling endpoints exist only where this
// listener is reachable.
func serveDebug(logger *slog.Logger, addr string, reg *obs.Registry, traces *obs.TraceStore) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("GET /debug/traces", traces.Handler())
	mux.Handle("/metrics", reg.Handler())
	logger.Info("debug listener", "addr", addr)
	if err := http.ListenAndServe(addr, mux); err != nil {
		logger.Error("debug listener failed", "err", err)
	}
}
