package router

// Router metric families (all documented in docs/METRICS.md). Each
// family is constructed at exactly one site, per the repository's
// metric lint; per-backend series share one family with a backend
// label, per-route series the route/code labelling the HTTP layer
// already uses.

import (
	"fmt"

	"s3cbcd/internal/obs"
)

type routerMetrics struct {
	inflight *obs.Gauge

	shed      *obs.Counter
	retries   *obs.Counter
	hedges    *obs.Counter
	hedgeWins *obs.Counter

	breakerTrips *obs.Counter
	probes       *obs.Counter

	partials      *obs.Counter
	missingShards *obs.Counter
}

func newRouterMetrics(reg *obs.Registry) routerMetrics {
	return routerMetrics{
		inflight: reg.Gauge("s3_router_inflight_requests",
			"client requests currently being coordinated"),
		shed: reg.Counter("s3_router_shed_total",
			"client requests shed with 503 because the in-flight budget was saturated"),
		retries: reg.Counter("s3_router_retries_total",
			"attempts re-driven against a sibling replica after a retryable failure"),
		hedges: reg.Counter("s3_router_hedges_total",
			"hedge attempts launched because the in-flight attempt outlived the group's latency fence"),
		hedgeWins: reg.Counter("s3_router_hedge_wins_total",
			"hedge attempts that produced the winning response"),
		breakerTrips: reg.Counter("s3_router_breaker_trips_total",
			"circuit breakers tripped open by consecutive backend failures"),
		probes: reg.Counter("s3_router_probes_total",
			"health probes sent to backends"),
		partials: reg.Counter("s3_router_partial_results_total",
			"degrade-policy responses returned with one or more shard groups missing"),
		missingShards: reg.Counter("s3_router_missing_shards_total",
			"shard groups omitted from degrade-policy responses (one count per missing group per response)"),
	}
}

// routeMetrics builds the per-route latency histogram and status-class
// counters, mirroring httpapi's instrumentation under router families.
func routeMetrics(reg *obs.Registry, route string) (*obs.Histogram, [4]*obs.Counter) {
	hist := reg.Histogram(fmt.Sprintf("s3_router_request_seconds{route=%q}", route),
		"router request wall time by route", obs.LatencyBuckets())
	var classes [4]*obs.Counter
	for i, class := range []string{"2xx", "3xx", "4xx", "5xx"} {
		classes[i] = reg.Counter(
			fmt.Sprintf("s3_router_requests_total{route=%q,code=%q}", route, class),
			"router requests served by route and status class")
	}
	return hist, classes
}

// backendSeries builds one backend's labelled series and gauges. The
// health and breaker gauges are GaugeFuncs so /metrics always renders
// the live state without a write on every transition.
func backendSeries(reg *obs.Registry, be *backend) {
	be.reqs = reg.Counter(fmt.Sprintf("s3_router_backend_requests_total{backend=%q}", be.url),
		"requests sent to each backend (retries and hedges included)")
	be.failures = reg.Counter(fmt.Sprintf("s3_router_backend_failures_total{backend=%q}", be.url),
		"requests to each backend that failed (transport error, 5xx, torn response, timeout)")
	be.reqSeconds = reg.Histogram(fmt.Sprintf("s3_router_backend_request_seconds{backend=%q}", be.url),
		"backend request wall time", obs.LatencyBuckets())
	reg.GaugeFunc(fmt.Sprintf("s3_router_backend_health{backend=%q}", be.url),
		"prober classification: 0 healthy, 1 degraded, 2 down",
		func() float64 { return float64(be.health()) })
	reg.GaugeFunc(fmt.Sprintf("s3_router_breaker_state{backend=%q}", be.url),
		"circuit breaker state: 0 closed, 1 open, 2 half-open",
		func() float64 { return float64(be.br.snapshot()) })
	reg.GaugeFunc(fmt.Sprintf("s3_router_backend_inflight_requests{backend=%q}", be.url),
		"requests currently in flight to each backend",
		func() float64 { return float64(be.inflight.Load()) })
}
