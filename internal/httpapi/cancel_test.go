package httpapi

// Abandoned requests: a caller that goes away — a client disconnecting,
// a router canceling its losing hedge — is recorded as 499 with no body
// on both cancel paths (mid-search, and queued on the in-flight
// semaphore) and is never counted as a server error. An expired
// deadline keeps its retryable 503 + Retry-After on the same paths.

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// classCount reads the route's status-class counter from the server's
// registry.
func classCount(t *testing.T, s *Server, route, class string) int {
	t.Helper()
	var b strings.Builder
	s.Metrics().WritePrometheus(&b)
	prefix := fmt.Sprintf("s3_http_requests_total{route=%q,code=%q} ", route, class)
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, prefix); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return n
		}
	}
	t.Fatalf("/metrics has no series %q", prefix)
	return 0
}

// checkClasses requires the /search/statistical counters to read want4xx
// and want5xx.
func checkClasses(t *testing.T, s *Server, want4xx, want5xx int) {
	t.Helper()
	const route = "/search/statistical"
	if got := classCount(t, s, route, "4xx"); got != want4xx {
		t.Errorf("4xx counter %d, want %d", got, want4xx)
	}
	if got := classCount(t, s, route, "5xx"); got != want5xx {
		t.Errorf("5xx counter %d, want %d", got, want5xx)
	}
}

// statRequest is a stat search under ctx, with an X-S3-Deadline budget
// when budget is non-zero.
func statRequest(ctx context.Context, budget time.Duration) *http.Request {
	req := httptest.NewRequest(http.MethodPost, "/search/statistical", strings.NewReader(statBody)).WithContext(ctx)
	if budget != 0 {
		req.Header.Set(DeadlineHeader, strconv.FormatInt(time.Now().Add(budget).UnixMilli(), 10))
	}
	return req
}

// checkAbandoned requires the 499 shape: the status alone, no body and
// no invitation to retry.
func checkAbandoned(t *testing.T, rec *httptest.ResponseRecorder) {
	t.Helper()
	if rec.Code != statusClientClosedRequest {
		t.Fatalf("abandoned request: status %d, want %d", rec.Code, statusClientClosedRequest)
	}
	if rec.Body.Len() != 0 || rec.Header().Get("Retry-After") != "" {
		t.Fatalf("abandoned request wrote a body %q / Retry-After %q", rec.Body, rec.Header().Get("Retry-After"))
	}
}

// checkShed requires the retryable 503 + Retry-After shape.
func checkShed(t *testing.T, rec *httptest.ResponseRecorder) {
	t.Helper()
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("expired deadline: status %d, Retry-After %q; want 503 with Retry-After", rec.Code, rec.Header().Get("Retry-After"))
	}
}

// A search whose caller cancels mid-refine is a 499, counted as 4xx;
// one whose deadline expires mid-refine stays a 503, counted as 5xx.
func TestCanceledSearchIs499(t *testing.T) {
	s, g := gateServer(4)

	ctx, cancel := context.WithCancel(context.Background())
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.ServeHTTP(rec, statRequest(ctx, 0))
	}()
	<-g.started // the search is in the engine
	cancel()
	<-done
	checkAbandoned(t, rec)
	checkClasses(t, s, 1, 0)

	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, statRequest(context.Background(), 30*time.Millisecond))
	checkShed(t, rec)
	checkClasses(t, s, 1, 1)
}

// A request whose caller cancels while it is queued on the in-flight
// semaphore is a 499 without touching the engine; one whose deadline
// expires there stays a 503.
func TestCanceledWhileQueuedIs499(t *testing.T) {
	s, g := gateServer(1)

	// Occupy the only slot.
	holder := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.ServeHTTP(holder, statRequest(context.Background(), 0))
	}()
	<-g.started

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, statRequest(ctx, 0))
	checkAbandoned(t, rec)
	checkClasses(t, s, 1, 0)

	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, statRequest(context.Background(), 30*time.Millisecond))
	checkShed(t, rec)
	checkClasses(t, s, 1, 1)

	close(g.release)
	<-done
	if holder.Code != http.StatusOK {
		t.Fatalf("slot-holding request: status %d", holder.Code)
	}
	if len(g.started) != 0 {
		t.Fatal("a queued request reached the engine")
	}
}
