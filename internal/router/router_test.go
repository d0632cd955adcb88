package router

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"s3cbcd/internal/hilbert"
	"s3cbcd/internal/httpapi"
	"s3cbcd/internal/store"
)

// Shared single-node/router geometry: every backend and the reference
// must run the same explicit depth — the depth heuristic is a function
// of database size, and sub-databases are smaller than the whole.
const (
	testDims  = 8
	testOrder = 8
	testDepth = 6
)

// faultSeed makes randomized layouts and chaos schedules reproducible:
// FAULT_SEED=n re-runs the exact sequence a failure reported.
func faultSeed(tb testing.TB) int64 {
	if s := os.Getenv("FAULT_SEED"); s != "" {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			tb.Fatalf("FAULT_SEED %q: %v", s, err)
		}
		return n
	}
	return 1
}

func testCurve(tb testing.TB) *hilbert.Curve {
	tb.Helper()
	return hilbert.MustNew(testDims, testOrder)
}

func randomRecords(rng *rand.Rand, n int) []store.Record {
	recs := make([]store.Record, n)
	for i := range recs {
		fp := make([]byte, testDims)
		for j := range fp {
			fp[j] = byte(rng.Intn(256))
		}
		recs[i] = store.Record{FP: fp, ID: uint32(i), TC: uint32(3 * i), X: uint16(i % 320), Y: uint16(i % 200)}
	}
	return recs
}

// sortedRecords extracts db's records in its canonical (Hilbert key,
// tie-broken) order — the order sub-database slicing must respect for
// concatenation merging to reproduce single-node results.
func sortedRecords(db *store.DB) []store.Record {
	recs := make([]store.Record, db.Len())
	for i := range recs {
		recs[i] = store.Record{FP: db.FP(i), ID: db.ID(i), TC: db.TC(i), X: db.X(i), Y: db.Y(i)}
	}
	return recs
}

// apiServer builds one s3serve-equivalent backend over recs.
func apiServer(tb testing.TB, curve *hilbert.Curve, recs []store.Record) *httptest.Server {
	tb.Helper()
	db := store.MustBuild(curve, recs)
	s, err := httpapi.New(db, httpapi.Options{Depth: testDepth, Workers: 2})
	if err != nil {
		tb.Fatal(err)
	}
	ts := httptest.NewServer(s)
	tb.Cleanup(ts.Close)
	return ts
}

// startRouter builds a router over groups and serves it.
func startRouter(tb testing.TB, opt Options) (*Router, *httptest.Server) {
	tb.Helper()
	rt, err := New(opt)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(rt.Close)
	ts := httptest.NewServer(rt)
	tb.Cleanup(ts.Close)
	return rt, ts
}

// postBytes returns status, raw body and headers for a JSON POST.
func postBytes(tb testing.TB, base, path, body string) (int, []byte, http.Header) {
	tb.Helper()
	resp, err := http.Post(base+path, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		tb.Fatal(err)
	}
	return resp.StatusCode, raw, resp.Header
}

func fpJSON(fp []byte) string {
	out := make([]int, len(fp))
	for i, b := range fp {
		out[i] = int(b)
	}
	raw, _ := json.Marshal(out)
	return string(raw)
}

// splitGroups cuts the canonical record order into g non-empty
// contiguous chunks at random boundaries.
func splitGroups(rng *rand.Rand, recs []store.Record, g int) [][]store.Record {
	cuts := map[int]bool{}
	for len(cuts) < g-1 {
		cuts[1+rng.Intn(len(recs)-1)] = true
	}
	bounds := []int{0}
	for c := range cuts {
		bounds = append(bounds, c)
	}
	bounds = append(bounds, len(recs))
	sortInts(bounds)
	chunks := make([][]store.Record, 0, g)
	for i := 0; i+1 < len(bounds); i++ {
		chunks = append(chunks, recs[bounds[i]:bounds[i+1]])
	}
	return chunks
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// TestMergeByteIdenticalProperty is the tentpole property: across random
// corpus sizes, group counts, cut points and replica factors, the
// router's merged stat/range/batch responses are byte-identical to one
// s3serve holding the whole corpus, and k-NN matches are byte-identical
// whenever the top-k distances are distinct (the single-node heap's
// tie order is traversal-dependent, so ties are out of contract).
func TestMergeByteIdenticalProperty(t *testing.T) {
	seed := faultSeed(t)
	curve := testCurve(t)
	const trials = 4
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(seed + int64(trial)*101))
		n := 300 + rng.Intn(300)
		global := store.MustBuild(curve, randomRecords(rng, n))
		ordered := sortedRecords(global)
		ref := apiServer(t, curve, ordered)

		g := 1 + rng.Intn(4)
		replicas := 1 + rng.Intn(2)
		chunks := splitGroups(rng, ordered, g)
		groups := make([][]string, len(chunks))
		for gi, chunk := range chunks {
			for ri := 0; ri < replicas; ri++ {
				groups[gi] = append(groups[gi], apiServer(t, curve, chunk).URL)
			}
		}
		_, rts := startRouter(t, Options{Groups: groups, ProbeInterval: -1})
		t.Logf("trial %d: n=%d groups=%d replicas=%d", trial, n, g, replicas)

		queries := make([][]byte, 0, 6)
		for i := 0; i < 3; i++ {
			queries = append(queries, ordered[rng.Intn(n)].FP)
		}
		for i := 0; i < 3; i++ {
			queries = append(queries, randomRecords(rng, 1)[0].FP)
		}

		for qi, fp := range queries {
			bodies := []struct {
				path string
				body string
			}{
				{"/search/statistical", fmt.Sprintf(`{"fingerprint":%s,"alpha":0.8,"sigma":10}`, fpJSON(fp))},
				{"/search/statistical", fmt.Sprintf(`{"fingerprint":%s,"alpha":0.95,"sigma":40}`, fpJSON(fp))},
				{"/search/range", fmt.Sprintf(`{"fingerprint":%s,"epsilon":60}`, fpJSON(fp))},
				{"/search/range", fmt.Sprintf(`{"fingerprint":%s,"epsilon":250}`, fpJSON(fp))},
				{"/search/statistical/batch", fmt.Sprintf(`{"fingerprints":[%s,%s],"alpha":0.9,"sigma":25}`,
					fpJSON(fp), fpJSON(queries[(qi+1)%len(queries)]))},
			}
			for _, q := range bodies {
				refCode, refBody, _ := postBytes(t, ref.URL, q.path, q.body)
				gotCode, gotBody, _ := postBytes(t, rts.URL, q.path, q.body)
				if refCode != http.StatusOK || gotCode != http.StatusOK {
					t.Fatalf("trial %d %s: status ref=%d router=%d (%s)", trial, q.path, refCode, gotCode, gotBody)
				}
				if !bytes.Equal(refBody, gotBody) {
					t.Fatalf("trial %d %s not byte-identical:\nquery: %s\nref:    %s\nrouter: %s",
						trial, q.path, q.body, refBody, gotBody)
				}
			}

			knnBody := fmt.Sprintf(`{"fingerprint":%s,"k":10}`, fpJSON(fp))
			refCode, refBody, _ := postBytes(t, ref.URL, "/search/knn", knnBody)
			gotCode, gotBody, _ := postBytes(t, rts.URL, "/search/knn", knnBody)
			if refCode != http.StatusOK || gotCode != http.StatusOK {
				t.Fatalf("trial %d knn: status ref=%d router=%d", trial, refCode, gotCode)
			}
			compareKNN(t, refBody, gotBody)
		}
	}
}

// compareKNN checks the merged k-NN answer against the single node:
// distance sequences always agree; with distinct distances the match
// lists must be byte-identical.
func compareKNN(t *testing.T, refBody, gotBody []byte) {
	t.Helper()
	type knnResp struct {
		Matches []matchJSON `json:"matches"`
	}
	var ref, got knnResp
	if err := json.Unmarshal(refBody, &ref); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(gotBody, &got); err != nil {
		t.Fatal(err)
	}
	if len(ref.Matches) != len(got.Matches) {
		t.Fatalf("knn: %d matches, single node has %d", len(got.Matches), len(ref.Matches))
	}
	distinct := true
	for i := range ref.Matches {
		if got.Matches[i].Dist != ref.Matches[i].Dist {
			t.Fatalf("knn: dist[%d] = %v, single node has %v", i, got.Matches[i].Dist, ref.Matches[i].Dist)
		}
		if i > 0 && ref.Matches[i].Dist == ref.Matches[i-1].Dist {
			distinct = false
		}
	}
	if distinct {
		refRaw, _ := json.Marshal(ref.Matches)
		gotRaw, _ := json.Marshal(got.Matches)
		if !bytes.Equal(refRaw, gotRaw) {
			t.Fatalf("knn matches with distinct distances not identical:\nref:    %s\nrouter: %s", refRaw, gotRaw)
		}
	}
}

func TestRouterShedsAtCapacity(t *testing.T) {
	release := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
		w.Write([]byte(`{"matches":[],"plan":{}}`))
	}))
	defer slow.Close()
	defer close(release)

	rt, rts := startRouter(t, Options{
		Groups:        [][]string{{slow.URL}},
		MaxInFlight:   1,
		ProbeInterval: -1,
	})

	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		close(started)
		code, _, _ := postBytes(t, rts.URL, "/search/statistical", `{"fingerprint":[1],"alpha":0.5,"sigma":1}`)
		if code != http.StatusOK {
			t.Errorf("first request: status %d", code)
		}
	}()
	<-started
	// Wait until the first request holds the slot.
	deadline := time.Now().Add(2 * time.Second)
	for rt.met.inflight.Value() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("first request never occupied the router")
		}
		time.Sleep(time.Millisecond)
	}
	code, body, hdr := postBytes(t, rts.URL, "/search/statistical", `{"fingerprint":[1],"alpha":0.5,"sigma":1}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("expected shed 503, got %d (%s)", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("shed 503 without Retry-After")
	}
	if rt.met.shed.Value() != 1 {
		t.Fatalf("shed counter %d, want 1", rt.met.shed.Value())
	}
	release <- struct{}{}
	wg.Wait()
}

func TestPartialPolicies(t *testing.T) {
	curve := testCurve(t)
	rng := rand.New(rand.NewSource(faultSeed(t)))
	ordered := sortedRecords(store.MustBuild(curve, randomRecords(rng, 400)))
	chunks := splitGroups(rng, ordered, 2)

	up := apiServer(t, curve, chunks[1])
	down := httptest.NewServer(http.NotFoundHandler())
	downURL := down.URL
	down.Close() // group 0's only replica refuses connections

	groups := [][]string{{downURL}, {up.URL}}
	body := fmt.Sprintf(`{"fingerprint":%s,"alpha":0.8,"sigma":10}`, fpJSON(ordered[0].FP))

	rt, rts := startRouter(t, Options{Groups: groups, ProbeInterval: -1, Retries: -1})

	code, raw, hdr := postBytes(t, rts.URL, "/search/statistical", body)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("strict with a dead group: status %d (%s)", code, raw)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("strict 503 without Retry-After")
	}

	code, raw, _ = postBytes(t, rts.URL, "/search/statistical?partial=degrade", body)
	if code != http.StatusOK {
		t.Fatalf("degrade: status %d (%s)", code, raw)
	}
	var resp struct {
		Matches       []matchJSON `json:"matches"`
		MissingShards []int       `json:"missingShards"`
	}
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.MissingShards) != 1 || resp.MissingShards[0] != 0 {
		t.Fatalf("missingShards %v, want [0]", resp.MissingShards)
	}
	if rt.met.partials.Value() != 1 || rt.met.missingShards.Value() != 1 {
		t.Fatalf("partials=%d missingShards=%d, want 1/1",
			rt.met.partials.Value(), rt.met.missingShards.Value())
	}

	// An invalid override is a client error, not silently strict.
	code, _, _ = postBytes(t, rts.URL, "/search/statistical?partial=sometimes", body)
	if code != http.StatusBadRequest {
		t.Fatalf("invalid partial override: status %d", code)
	}

	// Every group dead: degrade still refuses to fabricate an answer.
	rtAll, rtsAll := startRouter(t, Options{
		Groups: [][]string{{downURL}}, Partial: PartialDegrade, ProbeInterval: -1, Retries: -1,
	})
	_ = rtAll
	code, _, _ = postBytes(t, rtsAll.URL, "/search/statistical", body)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("degrade with all groups dead: status %d, want 503", code)
	}
}

func TestRouterDeadlineHeader(t *testing.T) {
	curve := testCurve(t)
	rng := rand.New(rand.NewSource(faultSeed(t)))
	ordered := sortedRecords(store.MustBuild(curve, randomRecords(rng, 200)))
	be := apiServer(t, curve, ordered)
	_, rts := startRouter(t, Options{Groups: [][]string{{be.URL}}, ProbeInterval: -1})

	body := fmt.Sprintf(`{"fingerprint":%s,"alpha":0.8,"sigma":10}`, fpJSON(ordered[0].FP))

	req, _ := http.NewRequest(http.MethodPost, rts.URL+"/search/statistical", bytes.NewReader([]byte(body)))
	req.Header.Set(deadlineHeader, "not-a-deadline")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed deadline: status %d", resp.StatusCode)
	}

	// An expired client budget is the client's timeout, not fleet
	// unavailability: 504, and no Retry-After inviting a doomed retry.
	req, _ = http.NewRequest(http.MethodPost, rts.URL+"/search/statistical", bytes.NewReader([]byte(body)))
	req.Header.Set(deadlineHeader, strconv.FormatInt(time.Now().Add(-time.Second).UnixMilli(), 10))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired deadline: status %d, want 504", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") != "" {
		t.Fatal("expired-deadline 504 carries Retry-After")
	}
}

// TestRouterBodyTooLarge: an oversized request must be rejected with
// 413, never silently truncated into corrupt JSON for the backends.
func TestRouterBodyTooLarge(t *testing.T) {
	curve := testCurve(t)
	rng := rand.New(rand.NewSource(faultSeed(t)))
	ordered := sortedRecords(store.MustBuild(curve, randomRecords(rng, 50)))
	be := apiServer(t, curve, ordered)
	_, rts := startRouter(t, Options{Groups: [][]string{{be.URL}}, ProbeInterval: -1})

	big := `{"fingerprint":[` + strings.Repeat("1,", httpapi.MaxRequestBody/2) + `1]}`
	code, raw, _ := postBytes(t, rts.URL, "/search/statistical", big)
	if code != http.StatusRequestEntityTooLarge || string(raw) != `{"error":"request body exceeds 8388608 bytes"}`+"\n" {
		t.Fatalf("oversized body: status %d (%.120s), want 413 with s3serve's body", code, raw)
	}
}

// TestHalfOpenProbeNeverStranded: a half-open probe whose attempt is
// abandoned (here: killed by the request deadline while the backend
// hangs) must resolve the breaker rather than leave it half-open
// forever with the backend blackholed until restart.
func TestHalfOpenProbeNeverStranded(t *testing.T) {
	curve := testCurve(t)
	rng := rand.New(rand.NewSource(faultSeed(t)))
	ordered := sortedRecords(store.MustBuild(curve, randomRecords(rng, 100)))

	stop := make(chan struct{})
	hang := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-stop:
		}
	}))
	t.Cleanup(hang.Close)
	t.Cleanup(func() { close(stop) }) // LIFO: unblock handlers before Close waits on them

	rt, rts := startRouter(t, Options{
		Groups:           [][]string{{hang.URL}},
		Retries:          -1,
		HedgeQuantile:    -1,
		ProbeInterval:    -1,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Millisecond,
		RequestTimeout:   50 * time.Millisecond,
	})
	be := backendFor(rt, hang.URL)

	// Trip the breaker, wait out the cooldown, then send the request
	// that consumes the half-open probe slot and dies on the deadline.
	be.br.failure()
	if be.br.snapshot() != breakerOpen {
		t.Fatal("breaker did not trip")
	}
	time.Sleep(5 * time.Millisecond)
	body := fmt.Sprintf(`{"fingerprint":%s,"alpha":0.8,"sigma":10}`, fpJSON(ordered[0].FP))
	code, _, _ := postBytes(t, rts.URL, "/search/statistical", body)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("hanging backend: status %d, want 504", code)
	}

	// The abandoned probe must hand its slot back: the breaker may not
	// stay half-open once the attempt goroutine drains.
	deadline := time.Now().Add(2 * time.Second)
	for be.br.snapshot() == breakerHalfOpen {
		if time.Now().After(deadline) {
			t.Fatal("breaker stuck half-open after its probe was abandoned")
		}
		time.Sleep(time.Millisecond)
	}
	if ok, probe := be.br.allow(); !ok || !probe {
		t.Fatalf("breaker refused the re-probe after an abandoned one (ok=%v probe=%v)", ok, probe)
	}
}

func TestBadQueryPropagates400(t *testing.T) {
	curve := testCurve(t)
	rng := rand.New(rand.NewSource(faultSeed(t)))
	ordered := sortedRecords(store.MustBuild(curve, randomRecords(rng, 200)))
	be := apiServer(t, curve, ordered)
	rt, rts := startRouter(t, Options{Groups: [][]string{{be.URL}}, ProbeInterval: -1})

	body := fmt.Sprintf(`{"fingerprint":%s,"alpha":0.8,"sigma":-1}`, fpJSON(ordered[0].FP))
	code, raw, _ := postBytes(t, rts.URL, "/search/statistical", body)
	if code != http.StatusBadRequest {
		t.Fatalf("status %d (%s), want the backend's 400", code, raw)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(raw, &e); err != nil || e.Error == "" {
		t.Fatalf("no error message in %s", raw)
	}
	if rt.met.retries.Value() != 0 {
		t.Fatalf("a query defect was retried %d times", rt.met.retries.Value())
	}
}

func TestRouterHealthzAndStats(t *testing.T) {
	curve := testCurve(t)
	rng := rand.New(rand.NewSource(faultSeed(t)))
	ordered := sortedRecords(store.MustBuild(curve, randomRecords(rng, 300)))
	chunks := splitGroups(rng, ordered, 2)
	a := apiServer(t, curve, chunks[0])
	b := apiServer(t, curve, chunks[1])

	_, rts := startRouter(t, Options{
		Groups:        [][]string{{a.URL}, {b.URL}},
		ProbeInterval: 20 * time.Millisecond,
	})

	waitStatus := func(want string) map[string]interface{} {
		deadline := time.Now().Add(5 * time.Second)
		for {
			resp, err := http.Get(rts.URL + "/healthz")
			if err != nil {
				t.Fatal(err)
			}
			var out map[string]interface{}
			err = json.NewDecoder(resp.Body).Decode(&out)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if out["status"] == want {
				return out
			}
			if time.Now().After(deadline) {
				t.Fatalf("healthz never reached %q: %v", want, out)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	out := waitStatus("ok")
	if int(out["groups"].(float64)) != 2 {
		t.Fatalf("groups %v, want 2", out["groups"])
	}

	stats := func() map[string]interface{} {
		resp, err := http.Get(rts.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st map[string]interface{}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := stats()
		if st["records"] == float64(len(ordered)) {
			// No search has taught the router the fleet's geometry yet.
			if c, ok := st["curve"]; !ok || c != nil {
				t.Fatalf("stats curve %v before any search, want null", c)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stats records %v never reached %d", st["records"], len(ordered))
		}
		time.Sleep(10 * time.Millisecond)
	}
	if code, raw, _ := postBytes(t, rts.URL, "/search/statistical", statBody(ordered[0].FP)); code != http.StatusOK {
		t.Fatalf("search status %d: %s", code, raw)
	}
	if c, want := stats()["curve"], fmt.Sprintf("%d.%d.%d", testDims, testOrder, testDepth); c != want {
		t.Fatalf("stats curve %v after both groups answered, want %q", c, want)
	}

	b.Close() // group 1 loses its only replica
	waitStatus("down")
}

func TestMetricsEndpointRendersRouterFamilies(t *testing.T) {
	curve := testCurve(t)
	rng := rand.New(rand.NewSource(faultSeed(t)))
	ordered := sortedRecords(store.MustBuild(curve, randomRecords(rng, 100)))
	be := apiServer(t, curve, ordered)
	_, rts := startRouter(t, Options{Groups: [][]string{{be.URL}}, ProbeInterval: -1})

	resp, err := http.Get(rts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	for _, family := range []string{
		"s3_router_inflight_requests",
		"s3_router_shed_total",
		"s3_router_retries_total",
		"s3_router_hedges_total",
		"s3_router_hedge_wins_total",
		"s3_router_breaker_trips_total",
		"s3_router_probes_total",
		"s3_router_partial_results_total",
		"s3_router_missing_shards_total",
		"s3_router_request_seconds",
		"s3_router_requests_total",
		"s3_router_backend_requests_total",
		"s3_router_backend_failures_total",
		"s3_router_backend_request_seconds",
		"s3_router_backend_health",
		"s3_router_breaker_state",
		"s3_router_backend_inflight_requests",
	} {
		if !bytes.Contains(raw, []byte(family)) {
			t.Errorf("/metrics missing family %s", family)
		}
	}
}
