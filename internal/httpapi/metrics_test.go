package httpapi

// Observability surface of the API: GET /metrics serves Prometheus text
// covering HTTP, engine/live-index and (when wired) store-I/O series,
// and ?trace=1 attaches a stage-level execution trace to a search
// response.

import (
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"s3cbcd/internal/hilbert"
	"s3cbcd/internal/obs"
	"s3cbcd/internal/store"
)

// testServerOpt is testServer with explicit Options (observability tests
// tune Metrics and TraceRate).
func testServerOpt(t *testing.T, opt Options) *Server {
	t.Helper()
	curve := hilbert.MustNew(8, 8)
	r := rand.New(rand.NewSource(1))
	recs := make([]store.Record, 600)
	for i := range recs {
		fp := make([]byte, 8)
		for j := range fp {
			fp[j] = byte(r.Intn(256))
		}
		recs[i] = store.Record{FP: fp, ID: uint32(i), TC: uint32(2 * i), X: uint16(i), Y: uint16(i + 1)}
	}
	opt.Workers = 4
	s, err := New(store.MustBuild(curve, recs), opt)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// fp8 is a valid 8-dim query fingerprint for the static test server.
var fp8 = []int{10, 20, 30, 40, 50, 60, 70, 80}

func scrape(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func TestMetricsEndpointStatic(t *testing.T) {
	s, _ := testServer(t)
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Serve one query so the engine series move.
	resp, _ := post(t, ts, "/search/statistical", map[string]interface{}{
		"fingerprint": fp8, "alpha": 0.9, "sigma": 30})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search status %d", resp.StatusCode)
	}

	text := scrape(t, ts)
	for _, want := range []string{
		"# TYPE s3_engine_plans_total counter",
		"# TYPE s3_engine_plan_seconds histogram",
		"s3_engine_stat_queries_total 1",
		`s3_http_request_seconds_bucket{route="/search/statistical",le="+Inf"} 1`,
		`s3_http_requests_total{route="/search/statistical",code="2xx"} 1`,
		"s3_http_inflight_requests",
		"s3_engine_workers",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
}

func TestMetricsEndpointLive(t *testing.T) {
	s, _ := liveTestServer(t)
	ts := httptest.NewServer(s)
	defer ts.Close()

	if resp, out := post(t, ts, "/ingest", ingestBody(7, []int{1, 2, 3, 4})); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: status %d: %v", resp.StatusCode, out)
	}
	text := scrape(t, ts)
	for _, want := range []string{
		"s3_live_ingested_records_total 1",
		"# TYPE s3_live_seal_seconds histogram",
		"s3_live_memtable_records 1",
		"s3_live_degraded 0",
		`s3_http_requests_total{route="/ingest",code="2xx"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
}

// A caller-supplied registry lets store-I/O counters render next to the
// server's own series (the s3serve wiring).
func TestMetricsSharedRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("s3_store_read_bytes_total", "t").Add(123)
	ts := httptest.NewServer(testServerOpt(t, Options{Metrics: reg}))
	defer ts.Close()

	text := scrape(t, ts)
	if !strings.Contains(text, "s3_store_read_bytes_total 123") {
		t.Error("/metrics does not include caller-registered store series")
	}
	if !strings.Contains(text, "s3_engine_plans_total") {
		t.Error("/metrics does not include engine series on a shared registry")
	}
}

func TestTraceKnob(t *testing.T) {
	s, _ := testServer(t)
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Untraced by default (TraceRate 0).
	resp, out := post(t, ts, "/search/statistical", map[string]interface{}{
		"fingerprint": fp8, "alpha": 0.9, "sigma": 30})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search status %d", resp.StatusCode)
	}
	if _, present := out["trace"]; present {
		t.Fatal("untraced search carries a trace")
	}

	// ?trace=1 opts in regardless of the sampling rate.
	resp, out = post(t, ts, "/search/statistical?trace=1", map[string]interface{}{
		"fingerprint": fp8, "alpha": 0.9, "sigma": 30})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced search status %d", resp.StatusCode)
	}
	tr, ok := out["trace"].(map[string]interface{})
	if !ok {
		t.Fatalf("traced search response lacks a trace object: %v", out)
	}
	stages, _ := tr["stages"].([]interface{})
	names := make([]string, 0, len(stages))
	for _, st := range stages {
		names = append(names, st.(map[string]interface{})["name"].(string))
	}
	if len(names) < 2 || names[0] != "plan" || names[1] != "refine" {
		t.Fatalf("trace stages %v, want [plan refine ...]", names)
	}
	if tr["totalMicros"].(float64) < 0 || tr["blocks"].(float64) <= 0 {
		t.Fatalf("trace counters implausible: %v", tr)
	}
}

// TraceRate 1 with a fixed seed samples every query even without the
// knob.
func TestTraceSampling(t *testing.T) {
	ts := httptest.NewServer(testServerOpt(t, Options{TraceRate: 1, TraceSeed: 7}))
	defer ts.Close()

	_, out := post(t, ts, "/search/range", map[string]interface{}{
		"fingerprint": fp8, "epsilon": 20.0})
	if _, present := out["trace"]; !present {
		t.Fatalf("rate-1 sampler did not trace the search: %v", out)
	}
}
