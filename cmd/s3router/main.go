// Command s3router is the fault-tolerant scatter/gather coordinator for
// a fleet of s3serve shard replicas. It serves the same JSON search API
// as a single s3serve, scattering each query across the key-range shard
// groups and merging the results byte-identically to a single node
// holding the whole corpus.
//
// The placement is static: either computed by rendezvous hashing from
// the backend list,
//
//	s3router -addr :8090 -backends http://a:8080,http://b:8080,http://c:8080 \
//	         -groups 4 -replicas 2
//
// or given explicitly, one -group flag per shard group (replicas
// comma-separated, groups in key-range order):
//
//	s3router -addr :8090 \
//	         -group http://a:8080,http://b:8080 \
//	         -group http://b:8080,http://c:8080
//
// -print-placement prints the computed group → replica table and exits;
// the operator deploys one s3serve per table cell over that group's
// shard file.
//
// Robustness: an active prober classifies each backend
// healthy/degraded/down from /healthz; failed or slow subqueries are
// retried with capped exponential backoff and hedged against sibling
// replicas once they outlive the fastest replica's recent latency
// fence; a consecutive-failure circuit breaker and a bounded in-flight
// budget front every backend; excess
// client load is shed immediately with 503 + Retry-After. -partial
// picks what an unreachable shard group does to a response: strict
// fails it, degrade returns the reachable groups plus a missingShards
// list (clients override per request with ?partial=).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"s3cbcd/internal/obs"
	"s3cbcd/internal/router"
)

// groupFlags collects repeated -group flags.
type groupFlags [][]string

func (g *groupFlags) String() string { return fmt.Sprint([][]string(*g)) }

func (g *groupFlags) Set(v string) error {
	urls := splitList(v)
	if len(urls) == 0 {
		return errors.New("empty group")
	}
	*g = append(*g, urls)
	return nil
}

func splitList(v string) []string {
	var out []string
	for _, s := range strings.Split(v, ",") {
		if s = strings.TrimSpace(s); s != "" {
			out = append(out, s)
		}
	}
	return out
}

func main() {
	var explicit groupFlags
	flag.Var(&explicit, "group", "explicit shard group: comma-separated replica URLs (repeat per group, key-range order; overrides -backends)")
	var (
		addr     = flag.String("addr", ":8090", "listen address")
		backends = flag.String("backends", "", "comma-separated backend URLs for rendezvous placement")
		groups   = flag.Int("groups", 0, "shard group count for rendezvous placement (0 = one per backend)")
		replicas = flag.Int("replicas", 1, "replicas per group for rendezvous placement")
		printPl  = flag.Bool("print-placement", false, "print the group -> replica placement table and exit")

		maxInFlight     = flag.Int("max-inflight", 0, "concurrent client requests bound (0 = default, <0 = unlimited)")
		retries         = flag.Int("retries", 0, "sibling retries per shard group (0 = default, <0 = none)")
		retryBackoff    = flag.Duration("retry-backoff", 0, "base retry backoff, doubling per retry up to 100ms (0 = default)")
		hedgeQuantile   = flag.Float64("hedge-quantile", 0, "latency quantile the hedge fence starts from: hedge once an attempt outlives Q + 3*IQR of the fastest replica's recent latencies (0 = default 0.95, <0 = off)")
		hedgeMin        = flag.Duration("hedge-min", 0, "hedge delay floor (0 = default)")
		requestTimeout  = flag.Duration("request-timeout", 0, "end-to-end client request budget (0 = default, <0 = none)")
		breakerThresh   = flag.Int("breaker-threshold", 0, "consecutive failures tripping a backend breaker (0 = default, <0 = off)")
		breakerCooldown = flag.Duration("breaker-cooldown", 0, "breaker open -> half-open delay (0 = default)")
		probeInterval   = flag.Duration("probe-interval", 0, "health probe period (0 = default, <0 = off)")
		partial         = flag.String("partial", "strict", "partial-result policy when a shard group is unreachable: strict or degrade")

		traceRate = flag.Float64("trace-rate", 0, "fraction of requests to trace end-to-end (0 = off, 1 = all)")
		traceSeed = flag.Int64("trace-seed", 0, "trace sampler seed (reproducible sampling)")
		debugAddr = flag.String("debug-addr", "",
			"operator listener with /debug/pprof/*, /debug/traces and /metrics (empty = disabled)")

		logJSON      = flag.Bool("log-json", false, "emit logs as JSON instead of text")
		readTimeout  = flag.Duration("read-timeout", 10*time.Second, "HTTP read timeout")
		writeTimeout = flag.Duration("write-timeout", 30*time.Second, "HTTP write timeout")
		drainTimeout = flag.Duration("drain-timeout", 15*time.Second, "graceful shutdown drain timeout")
	)
	flag.Parse()

	logger := newLogger(*logJSON)

	placement := [][]string(explicit)
	if len(placement) == 0 {
		urls := splitList(*backends)
		if len(urls) == 0 {
			fatal(logger, "placement", errors.New("need -group flags or -backends"))
		}
		g := *groups
		if g == 0 {
			g = len(urls)
		}
		var err error
		placement, err = router.Placement(urls, g, *replicas)
		if err != nil {
			fatal(logger, "placement", err)
		}
	}
	if *printPl {
		for g, set := range placement {
			fmt.Printf("group %d: %s\n", g, strings.Join(set, " "))
		}
		return
	}

	reg := obs.NewRegistry()
	rt, err := router.New(router.Options{
		Groups:           placement,
		MaxInFlight:      *maxInFlight,
		Retries:          *retries,
		RetryBackoff:     *retryBackoff,
		HedgeQuantile:    *hedgeQuantile,
		HedgeMin:         *hedgeMin,
		RequestTimeout:   *requestTimeout,
		BreakerThreshold: *breakerThresh,
		BreakerCooldown:  *breakerCooldown,
		ProbeInterval:    *probeInterval,
		Partial:          *partial,
		Metrics:          reg,
		Logger:           logger,
		TraceRate:        *traceRate,
		TraceSeed:        *traceSeed,
	})
	if err != nil {
		fatal(logger, "build router", err)
	}
	defer rt.Close()
	logger.Info("routing", "groups", len(placement), "addr", *addr, "partial", *partial)

	if *debugAddr != "" {
		go serveDebug(logger, *debugAddr, reg, rt.Traces())
	}

	hs := &http.Server{
		Addr:         *addr,
		Handler:      rt,
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
		logger.Info("signal received, draining", "timeout", *drainTimeout)
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

// serveDebug runs the operator-only listener: pprof profiles, the
// trace store (recent/slowest/errored assembled traces as JSON) and a
// /metrics alias, on its own mux so the endpoints exist only where
// this listener is reachable.
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

func newLogger(asJSON bool) *slog.Logger {
	var h slog.Handler
	if asJSON {
		h = slog.NewJSONHandler(os.Stderr, nil)
	} else {
		h = slog.NewTextHandler(os.Stderr, nil)
	}
	return slog.New(h).With("service", "s3router")
}

func fatal(logger *slog.Logger, msg string, err error) {
	logger.Error(msg, "err", err)
	os.Exit(1)
}
