package httpapi

// Deadline propagation and admission-control contract: the pieces an
// upstream coordinator (cmd/s3router) leans on. An inbound
// X-S3-Deadline header must bound the request context so backend work
// is canceled once the caller's budget expires; a request shed off the
// in-flight semaphore must answer 503 + Retry-After (the same shape as
// degraded mode, so the router's backoff treats both uniformly); and a
// canceled batch must release its semaphore slot and leak no
// goroutines.

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"s3cbcd/internal/core"
	"s3cbcd/internal/hilbert"
)

// gateSearcher is a core.Searcher whose searches block until released
// or until the request context ends — a deterministic stand-in for a
// slow refinement, letting tests hold the in-flight semaphore and
// observe context-driven aborts without timing races.
type gateSearcher struct {
	started chan struct{} // receives one token per search entered
	release chan struct{} // close to let blocked searches finish
}

func newGateSearcher() *gateSearcher {
	return &gateSearcher{started: make(chan struct{}, 64), release: make(chan struct{})}
}

func (g *gateSearcher) wait(ctx context.Context) error {
	select {
	case g.started <- struct{}{}:
	default:
	}
	select {
	case <-g.release:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (g *gateSearcher) SearchStat(ctx context.Context, q []byte, sq core.StatQuery) ([]core.Match, core.Plan, error) {
	return nil, core.Plan{}, g.wait(ctx)
}

func (g *gateSearcher) SearchRange(ctx context.Context, q []byte, eps float64) ([]core.Match, core.Plan, error) {
	return nil, core.Plan{}, g.wait(ctx)
}

func (g *gateSearcher) SearchKNN(ctx context.Context, q []byte, k, maxLeaves int) ([]core.Match, core.KNNStats, error) {
	return nil, core.KNNStats{}, g.wait(ctx)
}

func (g *gateSearcher) SearchStatBatch(ctx context.Context, queries [][]byte, sq core.StatQuery) ([][]core.Match, error) {
	if err := g.wait(ctx); err != nil {
		return nil, err
	}
	return make([][]core.Match, len(queries)), nil
}

func (g *gateSearcher) RefineStat(ctx context.Context, q []byte, sq core.StatQuery, runs []hilbert.Run) ([]core.Match, core.Plan, error) {
	return nil, core.Plan{}, g.wait(ctx)
}

func (g *gateSearcher) PlanCacheStats() (core.PlanCacheStats, bool) {
	return core.PlanCacheStats{}, false
}

// gateServer builds a Server over a gateSearcher with the given
// in-flight bound.
func gateServer(maxInFlight int) (*Server, *gateSearcher) {
	g := newGateSearcher()
	s := newServer(Options{MaxInFlight: maxInFlight})
	s.search, s.dims = g, 4
	return s, g
}

const statBody = `{"fingerprint":[1,2,3,4],"alpha":0.8,"sigma":5}`

// do sends req and decodes the JSON response body.
func do(t *testing.T, req *http.Request) (*http.Response, map[string]interface{}) {
	t.Helper()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("response is not JSON: %v", err)
	}
	return resp, out
}

// jsonBody marshals a request body to a string.
func jsonBody(v interface{}) (string, error) {
	raw, err := json.Marshal(v)
	return string(raw), err
}

// A request whose propagated deadline expires while queued on the
// in-flight semaphore is shed with 503 + Retry-After — the
// saturation signal the router's backoff logic keys on.
func TestQueueShed503CarriesRetryAfter(t *testing.T) {
	s, g := gateServer(1)
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Occupy the only slot.
	errc := make(chan error, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/search/statistical", "application/json", strings.NewReader(statBody))
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	<-g.started

	// Queue a second request with a budget that expires while queued.
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/search/statistical", strings.NewReader(statBody))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(DeadlineHeader, strconv.FormatInt(time.Now().Add(50*time.Millisecond).UnixMilli(), 10))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("queued-past-deadline request: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("semaphore-shed 503 lacks a Retry-After header")
	}

	close(g.release)
	if err := <-errc; err != nil {
		t.Fatalf("slot-holding request failed: %v", err)
	}
}

// An expired X-S3-Deadline aborts the search mid-refine: the derived
// context cancels in-flight engine work and the response is the
// retryable 503 shape, not a 400 or a hung request.
func TestDeadlineHeaderAbortsMidRefine(t *testing.T) {
	// Stub path: the deadline passes while refinement is in flight.
	s, _ := gateServer(4)
	ts := httptest.NewServer(s)
	defer ts.Close()

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/search/statistical", strings.NewReader(statBody))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(DeadlineHeader, strconv.FormatInt(time.Now().Add(30*time.Millisecond).UnixMilli(), 10))
	resp, out := do(t, req)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("mid-refine expiry: status %d, want 503: %v", resp.StatusCode, out)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("deadline-abort 503 lacks a Retry-After header")
	}
	if msg, _ := out["error"].(string); !strings.Contains(msg, "deadline") {
		t.Fatalf("deadline-abort error %q does not name the deadline", msg)
	}
}

// The same contract through the real engine: a deadline already in the
// past when refinement starts must abort the scan (refineStat checks
// the context), never return matches.
func TestDeadlineHeaderExpiredRealEngine(t *testing.T) {
	s, db := testServer(t)
	ts := httptest.NewServer(s)
	defer ts.Close()

	body, err := jsonBody(map[string]interface{}{
		"fingerprint": fpOf(db, 0), "alpha": 0.8, "sigma": 20})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/search/statistical", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(DeadlineHeader, strconv.FormatInt(time.Now().Add(-time.Second).UnixMilli(), 10))
	resp, out := do(t, req)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("expired deadline: status %d, want 503: %v", resp.StatusCode, out)
	}
	if _, hasMatches := out["matches"]; hasMatches {
		t.Fatalf("expired deadline returned matches: %v", out)
	}
}

// A malformed deadline header is a client defect: 400, not silently
// ignored.
func TestDeadlineHeaderMalformed(t *testing.T) {
	s, _ := testServer(t)
	ts := httptest.NewServer(s)
	defer ts.Close()

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/search/statistical", strings.NewReader(statBody))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(DeadlineHeader, "not-a-timestamp")
	resp, out := do(t, req)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed deadline: status %d, want 400: %v", resp.StatusCode, out)
	}
}

// SetDraining flips /healthz to the draining state (and back) without
// touching request handling — the drain window a router's prober needs.
func TestHealthzDraining(t *testing.T) {
	s, _ := testServer(t)
	ts := httptest.NewServer(s)
	defer ts.Close()

	health := func() map[string]interface{} {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
		if err != nil {
			t.Fatal(err)
		}
		_, out := do(t, req)
		return out
	}
	if h := health(); h["status"] != "ok" || h["draining"] != false {
		t.Fatalf("pre-drain healthz: %v", h)
	}
	s.SetDraining(true)
	if h := health(); h["status"] != "draining" || h["draining"] != true {
		t.Fatalf("draining healthz: %v", h)
	}
	// Searches still serve during the drain window.
	resp, _ := post(t, ts, "/search/knn", map[string]interface{}{
		"fingerprint": []int{1, 2, 3, 4, 5, 6, 7, 8}, "k": 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search while draining: status %d", resp.StatusCode)
	}
	s.SetDraining(false)
	if h := health(); h["status"] != "ok" || h["draining"] != false {
		t.Fatalf("post-drain healthz: %v", h)
	}
}

// Canceling the client mid-batch must release the bounded in-flight
// slot promptly and leak no goroutines — the transport guarantee the
// router's scatter/gather generalizes (a hedged loser is exactly such
// a canceled request).
func TestBatchPartialCancellationReleasesSlots(t *testing.T) {
	s, g := gateServer(1)
	ts := httptest.NewServer(s)
	defer ts.Close()

	before := runtime.NumGoroutine()
	batch := `{"fingerprints":[[1,2,3,4],[5,6,7,8],[9,10,11,12]],"alpha":0.8,"sigma":5}`
	for i := 0; i < 5; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			ts.URL+"/search/statistical/batch", strings.NewReader(batch))
		if err != nil {
			cancel()
			t.Fatal(err)
		}
		errc := make(chan error, 1)
		go func() {
			resp, err := http.DefaultClient.Do(req)
			if err == nil {
				resp.Body.Close()
			}
			errc <- err
		}()
		<-g.started // batch holds the only slot
		cancel()    // client goes away mid-batch
		if err := <-errc; err == nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("iteration %d: canceled batch returned err %v, want context.Canceled", i, err)
		}
		// The slot must come free: a fresh bounded request may queue
		// briefly while the aborted handler unwinds, but must get
		// through well before this budget expires.
		req2, err := http.NewRequest(http.MethodPost, ts.URL+"/search/knn",
			strings.NewReader(`{"fingerprint":[1,2,3,4],"k":1}`))
		if err != nil {
			t.Fatal(err)
		}
		req2.Header.Set(DeadlineHeader, strconv.FormatInt(time.Now().Add(5*time.Second).UnixMilli(), 10))
		done := make(chan *http.Response, 1)
		go func() {
			resp, err := http.DefaultClient.Do(req2)
			if err != nil {
				done <- nil
				return
			}
			resp.Body.Close()
			done <- resp
		}()
		<-g.started // the knn search entered: the slot was released
		close(g.release)
		if resp := <-done; resp == nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("iteration %d: post-cancel search did not succeed: %+v", i, resp)
		}
		g.release = make(chan struct{})
	}

	// No goroutine may outlive its canceled batch. Allow the runtime a
	// moment to reap handler goroutines; a leak keeps the count high
	// past the deadline.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before+3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after canceled batches",
				before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
