package router

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"s3cbcd/internal/hilbert"
	"s3cbcd/internal/httpapi"
	"s3cbcd/internal/store"
)

// planWatch is a backend at an explicit depth that counts the requests
// arriving with an X-S3-Plan header.
type planWatch struct {
	ts      *httptest.Server
	planned atomic.Int64
}

func watchedBackend(t *testing.T, curve *hilbert.Curve, recs []store.Record, depth int) *planWatch {
	t.Helper()
	s, err := httpapi.New(store.MustBuild(curve, recs), httpapi.Options{Depth: depth, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	w := &planWatch{}
	w.ts = httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.Header.Get(httpapi.PlanHeader) != "" {
			w.planned.Add(1)
		}
		s.ServeHTTP(rw, r)
	}))
	t.Cleanup(w.ts.Close)
	return w
}

// plansComputed reads a backend's s3_engine_plans_total.
func plansComputed(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "s3_engine_plans_total "); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	t.Fatalf("%s/metrics has no s3_engine_plans_total", url)
	return 0
}

// TestRouterPlansOnce: once every group has answered once, statistical
// queries through the router are planned by the router alone — no
// backend computes a plan — and the answers stay byte-identical to one
// s3serve holding the whole corpus.
func TestRouterPlansOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(faultSeed(t)))
	curve := testCurve(t)
	ordered := sortedRecords(store.MustBuild(curve, randomRecords(rng, 500)))
	ref := apiServer(t, curve, ordered)
	var groups [][]string
	var backends []*planWatch
	for _, chunk := range splitGroups(rng, ordered, 3) {
		var urls []string
		for r := 0; r < 2; r++ {
			w := watchedBackend(t, curve, chunk, testDepth)
			backends = append(backends, w)
			urls = append(urls, w.ts.URL)
		}
		groups = append(groups, urls)
	}
	rt, rts := startRouter(t, Options{Groups: groups, ProbeInterval: -1})

	// The first reply from each group teaches the router the geometry.
	code, raw, _ := postBytes(t, rts.URL, "/search/statistical", statBody(ordered[0].FP))
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	if got, want := rt.geometry(), fmt.Sprintf("%d.%d.%d", testDims, testOrder, testDepth); got != want {
		t.Fatalf("learned geometry %v, want %s", got, want)
	}
	before := make([]int, len(backends))
	for i, w := range backends {
		before[i] = plansComputed(t, w.ts.URL)
	}

	for i := 0; i < 12; i++ {
		fp := ordered[rng.Intn(len(ordered))].FP
		if i%2 == 1 {
			fp = randomRecords(rng, 1)[0].FP
		}
		for _, body := range []string{
			statBody(fp),
			fmt.Sprintf(`{"fingerprint":%s,"alpha":0.95,"sigma":40}`, fpJSON(fp)),
		} {
			refCode, refBody, _ := postBytes(t, ref.URL, "/search/statistical", body)
			gotCode, gotBody, _ := postBytes(t, rts.URL, "/search/statistical", body)
			if refCode != http.StatusOK || gotCode != http.StatusOK {
				t.Fatalf("status ref=%d router=%d (%s)", refCode, gotCode, gotBody)
			}
			if !bytes.Equal(refBody, gotBody) {
				t.Fatalf("planned answer not byte-identical:\nquery:  %s\nref:    %s\nrouter: %s", body, refBody, gotBody)
			}
		}
	}
	planned := int64(0)
	for i, w := range backends {
		if after := plansComputed(t, w.ts.URL); after != before[i] {
			t.Errorf("backend %d computed %d plans for router-planned queries", i, after-before[i])
		}
		planned += w.planned.Load()
	}
	// Each of the 24 queries reached every group with the plan.
	if planned < 24*int64(len(groups)) {
		t.Fatalf("%d planned attempts for 24 queries over %d groups", planned, len(groups))
	}
}

// TestRouterNeverPlansMixedDepths: groups serving different depths
// never agree on a geometry, so the router never sends a plan and every
// group answers at its own depth.
func TestRouterNeverPlansMixedDepths(t *testing.T) {
	rng := rand.New(rand.NewSource(faultSeed(t)))
	curve := testCurve(t)
	ordered := sortedRecords(store.MustBuild(curve, randomRecords(rng, 300)))
	chunks := splitGroups(rng, ordered, 2)
	a := watchedBackend(t, curve, chunks[0], testDepth)
	b := watchedBackend(t, curve, chunks[1], testDepth+1)
	rt, rts := startRouter(t, Options{Groups: [][]string{{a.ts.URL}, {b.ts.URL}}, ProbeInterval: -1})
	for i := 0; i < 8; i++ {
		code, raw, _ := postBytes(t, rts.URL, "/search/statistical", statBody(ordered[rng.Intn(len(ordered))].FP))
		if code != http.StatusOK {
			t.Fatalf("status %d: %s", code, raw)
		}
	}
	if n := a.planned.Load() + b.planned.Load(); n != 0 {
		t.Fatalf("router sent %s on %d requests to a fleet at two depths", httpapi.PlanHeader, n)
	}
	if g := rt.geometry(); g != nil {
		t.Fatalf("router learned geometry %v from disagreeing groups", g)
	}
}

// TestBackendIgnoresOldPlanHeader: plans were once sent as key intervals
// under X-S3-Plan. A router of that time in front of today's backends
// sends its plan under that name; each backend ignores it, plans the
// query itself and answers byte-identically to one s3serve holding the
// whole corpus.
func TestBackendIgnoresOldPlanHeader(t *testing.T) {
	rng := rand.New(rand.NewSource(faultSeed(t)))
	curve := testCurve(t)
	ordered := sortedRecords(store.MustBuild(curve, randomRecords(rng, 300)))
	ref := apiServer(t, curve, ordered)
	var groups [][]string
	var servers []*httptest.Server
	for _, chunk := range splitGroups(rng, ordered, 2) {
		s, err := httpapi.New(store.MustBuild(curve, chunk), httpapi.Options{Depth: testDepth, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if h := r.Header.Get(httpapi.PlanHeader); h != "" {
				r.Header.Del(httpapi.PlanHeader)
				r.Header.Set("X-S3-Plan", h)
			}
			s.ServeHTTP(rw, r)
		}))
		t.Cleanup(ts.Close)
		servers = append(servers, ts)
		groups = append(groups, []string{ts.URL})
	}
	rt, rts := startRouter(t, Options{Groups: groups, ProbeInterval: -1})
	if code, raw, _ := postBytes(t, rts.URL, "/search/statistical", statBody(ordered[0].FP)); code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	if rt.geometry() == nil {
		t.Fatal("router did not learn the fleet's geometry")
	}
	before := make([]int, len(servers))
	for i, ts := range servers {
		before[i] = plansComputed(t, ts.URL)
	}
	const queries = 8
	for i := 0; i < queries; i++ {
		// Distinct queries, none the first: a plan cache hit computes no
		// plan.
		body := statBody(ordered[1+37*i].FP)
		refCode, refBody, _ := postBytes(t, ref.URL, "/search/statistical", body)
		gotCode, gotBody, _ := postBytes(t, rts.URL, "/search/statistical", body)
		if refCode != http.StatusOK || gotCode != http.StatusOK || !bytes.Equal(refBody, gotBody) {
			t.Fatalf("status ref=%d router=%d, answers differ:\nref:    %s\nrouter: %s", refCode, gotCode, refBody, gotBody)
		}
	}
	for i, ts := range servers {
		if n := plansComputed(t, ts.URL) - before[i]; n != queries {
			t.Errorf("backend %d planned %d of %d queries sent with the old header", i, n, queries)
		}
	}
}
