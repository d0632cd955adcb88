package main

import "testing"

func TestParseMetricsAndDelta(t *testing.T) {
	p := famPrefix
	before := parseMetrics(`# HELP ` + p + `plan_cache_hits_total plans served from cache
# TYPE ` + p + `plan_cache_hits_total counter
` + p + `plan_cache_hits_total 10
` + p + `http_requests_total{route="/search/range",code="2xx"} 5
` + p + `http_requests_total{route="/search/range",code="4xx"} 1
` + p + `live_seal_seconds_bucket{le="0.005"} 2
` + p + `live_seal_seconds_sum 0.25
` + p + `live_seal_seconds_count 3
garbage line without value
`)
	after := parseMetrics(p + `plan_cache_hits_total 25
` + p + `http_requests_total{route="/search/range",code="2xx"} 9
` + p + `http_requests_total{route="/search/range",code="4xx"} 1
` + p + `http_requests_total{route="/ingest",code="2xx"} 4
` + p + `live_seal_seconds_sum 1.5
` + p + `live_seal_seconds_count 7
` + p + `live_segments 3
`)
	if got := before[p+"plan_cache_hits_total"]; got != 10 {
		t.Fatalf("parsed hits = %v, want 10", got)
	}
	if got := before[p+`live_seal_seconds_bucket{le="0.005"}`]; got != 2 {
		t.Errorf("parsed bucket = %v, want 2", got)
	}
	d := delta(before, after)
	if got := d.sum("plan_cache_hits_total"); got != 15 {
		t.Errorf("hits delta = %v, want 15", got)
	}
	if got := d.sum("http_requests_total", `code="2xx"`); got != 8 { // 4 range + 4 ingest (new series counts from 0)
		t.Errorf("2xx delta = %v, want 8", got)
	}
	if got := d.sum("http_requests_total", `code="2xx"`, `route="/ingest"`); got != 4 {
		t.Errorf("ingest 2xx delta = %v, want 4", got)
	}
	if got := d.sum("http_requests_total", `code="4xx"`); got != 0 {
		t.Errorf("4xx delta = %v, want 0", got)
	}
	if got := d.sum("live_seal_seconds_sum"); got != 1.25 {
		t.Errorf("seal seconds delta = %v, want 1.25", got)
	}
	// A family name is matched whole: _sum must not swallow _count.
	if got := d.sum("live_seal_seconds"); got != 0 {
		t.Errorf("bare histogram family = %v, want 0", got)
	}
	if !after.has("live_segments") || after.has("router_hedges_total") {
		t.Errorf("has: live_segments %v router_hedges_total %v", after.has("live_segments"), after.has("router_hedges_total"))
	}
	sum := metricSet{}
	sum.add(before)
	sum.add(before)
	if got := sum[p+"plan_cache_hits_total"]; got != 20 {
		t.Errorf("two processes summed = %v, want 20", got)
	}
}
