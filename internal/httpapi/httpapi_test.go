package httpapi

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"s3cbcd/internal/hilbert"
	"s3cbcd/internal/store"
)

func testServer(t *testing.T) (*Server, *store.DB) {
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
	db := store.MustBuild(curve, recs)
	s, err := New(db, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	return s, db
}

func post(t *testing.T, ts *httptest.Server, path string, body interface{}) (*http.Response, map[string]interface{}) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func fpOf(db *store.DB, i int) []int {
	fp := db.FP(i)
	out := make([]int, len(fp))
	for j, b := range fp {
		out[j] = int(b)
	}
	return out
}

func TestStatsEndpoint(t *testing.T) {
	s, _ := testServer(t)
	ts := httptest.NewServer(s)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]float64
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out["records"] != 600 || out["dims"] != 8 {
		t.Fatalf("stats: %+v", out)
	}
}

func TestStatisticalEndpoint(t *testing.T) {
	s, db := testServer(t)
	ts := httptest.NewServer(s)
	defer ts.Close()
	resp, out := post(t, ts, "/search/statistical", map[string]interface{}{
		"fingerprint": fpOf(db, 42), "alpha": 0.8, "sigma": 10,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %+v", resp.StatusCode, out)
	}
	matches := out["matches"].([]interface{})
	if len(matches) == 0 {
		t.Fatal("no matches around a stored fingerprint")
	}
	foundSelf := false
	for _, m := range matches {
		mm := m.(map[string]interface{})
		if uint32(mm["id"].(float64)) == db.ID(42) {
			foundSelf = true
		}
	}
	if !foundSelf {
		t.Fatal("self record not in statistical results")
	}
	plan := out["plan"].(map[string]interface{})
	if plan["mass"].(float64) < 0.8 {
		t.Fatalf("plan mass %v", plan["mass"])
	}
	if plan["filterIters"].(float64) < 1 {
		t.Fatalf("plan filterIters %v", plan["filterIters"])
	}
	if plan["descentNodes"].(float64) <= 0 {
		t.Fatalf("plan descentNodes %v, want > 0", plan["descentNodes"])
	}
}

func TestRangeAndKNNEndpoints(t *testing.T) {
	s, db := testServer(t)
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, out := post(t, ts, "/search/range", map[string]interface{}{
		"fingerprint": fpOf(db, 10), "epsilon": 0.5,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("range status %d: %+v", resp.StatusCode, out)
	}
	if n := len(out["matches"].([]interface{})); n < 1 {
		t.Fatalf("range self query: %d matches", n)
	}

	resp, out = post(t, ts, "/search/knn", map[string]interface{}{
		"fingerprint": fpOf(db, 10), "k": 3,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("knn status %d: %+v", resp.StatusCode, out)
	}
	matches := out["matches"].([]interface{})
	if len(matches) != 3 {
		t.Fatalf("knn returned %d", len(matches))
	}
	if out["exact"] != true {
		t.Fatal("knn not exact")
	}
}

// TestKNNHugeK: k comes off the wire, so it must not size an allocation.
// k = 2^40 (a 32 TB result heap if taken at its word) answers with every
// record the server holds, static and live.
func TestKNNHugeK(t *testing.T) {
	static, db := testServer(t)
	live, li := liveTestServer(t)
	for i := 0; i < 10; i++ {
		if err := li.Ingest([]store.Record{{FP: []byte{byte(i), 2, 3, 4}, ID: 1, TC: uint32(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		s    *Server
		fp   []int
		want int
	}{{static, fpOf(db, 10), db.Len()}, {live, []int{1, 2, 3, 4}, 10}} {
		ts := httptest.NewServer(c.s)
		resp, out := post(t, ts, "/search/knn", map[string]interface{}{"fingerprint": c.fp, "k": int64(1) << 40})
		ts.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("knn status %d: %+v", resp.StatusCode, out)
		}
		if n := len(out["matches"].([]interface{})); n != c.want {
			t.Fatalf("knn with k = 2^40 returned %d matches, want all %d", n, c.want)
		}
	}
}

func TestBadRequests(t *testing.T) {
	s, db := testServer(t)
	ts := httptest.NewServer(s)
	defer ts.Close()
	cases := []struct {
		path string
		body interface{}
	}{
		{"/search/statistical", map[string]interface{}{"fingerprint": []int{1, 2}, "alpha": 0.8, "sigma": 10}},
		{"/search/statistical", map[string]interface{}{"fingerprint": fpOf(db, 0), "alpha": 0, "sigma": 10}},
		{"/search/statistical", map[string]interface{}{"fingerprint": fpOf(db, 0), "alpha": 0.5, "sigma": 0}},
		{"/search/statistical", map[string]interface{}{"fingerprint": []int{1, 2, 3, 4, 5, 6, 7, 300}, "alpha": 0.5, "sigma": 5}},
		{"/search/range", map[string]interface{}{"fingerprint": fpOf(db, 0), "epsilon": -4}},
		{"/search/knn", map[string]interface{}{"fingerprint": fpOf(db, 0), "k": 0}},
	}
	for i, c := range cases {
		resp, out := post(t, ts, c.path, c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status %d (%+v)", i, resp.StatusCode, out)
		}
		if out["error"] == "" {
			t.Errorf("case %d: no error message", i)
		}
	}
	// Malformed JSON.
	resp, err := http.Post(ts.URL+"/search/range", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d", resp.StatusCode)
	}
	// Wrong method.
	resp, err = http.Get(ts.URL + "/search/range")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("GET on POST endpoint succeeded")
	}
}

func TestHealthzEndpoint(t *testing.T) {
	s, db := testServer(t)
	ts := httptest.NewServer(s)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var out map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out["status"] != "ok" {
		t.Errorf("status %v", out["status"])
	}
	if int(out["records"].(float64)) != db.Len() {
		t.Errorf("records %v, want %d", out["records"], db.Len())
	}
	if out["descentNodes"].(float64) != 0 {
		t.Errorf("descentNodes %v before any search, want 0", out["descentNodes"])
	}

	// The counter accumulates the plans' descent nodes across searches.
	resp2, sout := post(t, ts, "/search/statistical", map[string]interface{}{
		"fingerprint": fpOf(db, 3), "alpha": 0.8, "sigma": 10,
	})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("search status %d", resp2.StatusCode)
	}
	planNodes := sout["plan"].(map[string]interface{})["descentNodes"].(float64)
	resp3, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	var out2 map[string]interface{}
	if err := json.NewDecoder(resp3.Body).Decode(&out2); err != nil {
		t.Fatal(err)
	}
	if got := out2["descentNodes"].(float64); got != planNodes {
		t.Errorf("healthz descentNodes %v after one search, plan reported %v", got, planNodes)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	s, _ := testServer(t)
	ts := httptest.NewServer(s)
	defer ts.Close()
	for _, path := range []string{
		"/search/statistical", "/search/statistical/batch", "/search/range", "/search/knn",
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET %s: status %d, want 405", path, resp.StatusCode)
		}
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /healthz: status %d, want 405", resp.StatusCode)
	}
}

func TestBatchEndpointMatchesSingles(t *testing.T) {
	s, db := testServer(t)
	ts := httptest.NewServer(s)
	defer ts.Close()
	idx := []int{3, 42, 99, 250, 512}
	fps := make([][]int, len(idx))
	for i, j := range idx {
		fps[i] = fpOf(db, j)
	}
	resp, out := post(t, ts, "/search/statistical/batch", map[string]interface{}{
		"fingerprints": fps, "alpha": 0.8, "sigma": 10,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %+v", resp.StatusCode, out)
	}
	results := out["results"].([]interface{})
	if len(results) != len(idx) {
		t.Fatalf("batch returned %d results, want %d", len(results), len(idx))
	}
	for i, j := range idx {
		_, single := post(t, ts, "/search/statistical", map[string]interface{}{
			"fingerprint": fpOf(db, j), "alpha": 0.8, "sigma": 10,
		})
		want, err := json.Marshal(single["matches"])
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(results[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("batch result %d differs from single query", i)
		}
	}
	// Empty and malformed batches are rejected.
	resp, _ = post(t, ts, "/search/statistical/batch", map[string]interface{}{
		"fingerprints": [][]int{}, "alpha": 0.8, "sigma": 10,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch: status %d", resp.StatusCode)
	}
	resp, _ = post(t, ts, "/search/statistical/batch", map[string]interface{}{
		"fingerprints": [][]int{{1, 2}}, "alpha": 0.8, "sigma": 10,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("short fingerprint in batch: status %d", resp.StatusCode)
	}
}

// TestConcurrentRequests drives every endpoint from many goroutines at
// once; run under -race it fails if the engine or handlers share mutable
// per-query state.
func TestConcurrentRequests(t *testing.T) {
	s, db := testServer(t)
	ts := httptest.NewServer(s)
	defer ts.Close()
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				fp := fpOf(db, (g*37+i*11)%db.Len())
				bodies := []struct {
					path string
					body map[string]interface{}
				}{
					{"/search/statistical", map[string]interface{}{"fingerprint": fp, "alpha": 0.8, "sigma": 10}},
					{"/search/statistical/batch", map[string]interface{}{"fingerprints": [][]int{fp, fp}, "alpha": 0.8, "sigma": 10}},
					{"/search/range", map[string]interface{}{"fingerprint": fp, "epsilon": 40}},
					{"/search/knn", map[string]interface{}{"fingerprint": fp, "k": 3}},
				}
				for _, b := range bodies {
					raw, err := json.Marshal(b.body)
					if err != nil {
						t.Error(err)
						return
					}
					resp, err := http.Post(ts.URL+b.path, "application/json", bytes.NewReader(raw))
					if err != nil {
						t.Error(err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Errorf("%s: status %d", b.path, resp.StatusCode)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestInFlightBound(t *testing.T) {
	_, db := testServer(t)
	s, err := New(db, Options{Workers: 2, MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	if cap(s.sem) != 1 {
		t.Fatalf("semaphore capacity %d, want 1", cap(s.sem))
	}
	unbounded, err := New(db, Options{MaxInFlight: -1})
	if err != nil {
		t.Fatal(err)
	}
	if unbounded.sem != nil {
		t.Fatal("negative MaxInFlight still bounded")
	}
}
