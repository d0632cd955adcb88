package router

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"s3cbcd/internal/obs"
	"s3cbcd/internal/store"
)

var wireRoutes = []*route{&statRoute, &batchRoute, &rangeRoute, &knnRoute}

// splicedBody is the untraced merged body search writes for bodies (nil
// for a missing group).
func splicedBody(rt *route, req []byte, bodies [][]byte, missing []int) ([]byte, error) {
	k := 0
	if rt.k != nil {
		k = rt.k(req)
	}
	parse := rt.parser()
	outs := make([]*reply, len(bodies))
	for g, b := range bodies {
		if b == nil {
			continue
		}
		rp, err := located(b, parse)
		if err != nil {
			return nil, err
		}
		outs[g] = rp
	}
	return append(rt.merge([]byte{'{'}, outs, missing, k), "}\n"...), nil
}

// batchLen is the number of per-query results a batch body decodes to.
func batchLen(body []byte) int {
	var br batchReply
	json.Unmarshal(body, &br)
	return len(br.Results)
}

// FuzzBackendReply holds the router's wire path to three properties on
// any pair of backend bodies: the scanner never panics; every body
// json.Valid rejects is a retryable torn failure; and for bodies in the
// form s3serve writes — each fuzz input re-encoded through the decode
// path first, so mutations of numbers, keys and nesting reach the merge
// — the spliced merge equals the old decode → merge → encode oracle
// byte for byte, complete and with group 1 missing, or is a torn
// failure where the batch groups disagree on the number of results.
// Seeds are the pinned router goldens plus torn and mis-shaped bodies.
func FuzzBackendReply(f *testing.F) {
	golden, err := os.ReadFile("testdata/golden.txt")
	if err != nil {
		f.Fatal(err)
	}
	for _, sec := range bytes.Split(golden, []byte("### "))[1:] {
		head, body, _ := bytes.Cut(sec, []byte("\n"))
		for i, rt := range wireRoutes {
			if bytes.Contains(head, []byte(rt.path+" ")) {
				f.Add(uint8(i), body, body)
				f.Add(uint8(i|4|6<<3), body, body[:len(body)/2])
			}
		}
	}
	for _, s := range []string{"", "null", "[]", `{"matches":[{"id":`, `{"matches":"x","plan":1}`,
		`{"results":[[],null,[{"id":1}]]}`, `{"exact":1,"matches":[{"dist":"2"}]}`, `{"matches":[null],"scanned":1.5}`} {
		for i := range wireRoutes {
			f.Add(uint8(i), []byte(s), []byte(`{}`))
		}
	}
	f.Fuzz(func(t *testing.T, sel uint8, a, b []byte) {
		rt := wireRoutes[sel%4]
		for _, body := range [][]byte{a, b} {
			rt.parser()(body) // the scanner alone, on any bytes
			_, err := located(body, rt.parser())
			var be *backendError
			if !json.Valid(body) && (!errors.As(err, &be) || !be.retryable) {
				t.Fatalf("invalid body %q: err %v, want a retryable torn failure", body, err)
			}
		}

		ca, okA := canonicalBody(rt.path, a)
		cb, okB := canonicalBody(rt.path, b)
		if !okA || !okB {
			return
		}
		bodies, missing := [][]byte{ca, cb}, []int(nil)
		if sel&4 != 0 {
			bodies, missing = [][]byte{ca, nil}, []int{1}
		}
		var req []byte
		if rt == &knnRoute {
			req = []byte(fmt.Sprintf(`{"k":%d}`, sel>>3))
		}
		got, err := splicedBody(rt, req, bodies, missing)
		if rt == &batchRoute && missing == nil && batchLen(ca) != batchLen(cb) {
			var be *backendError
			if !errors.As(err, &be) || !be.retryable {
				t.Fatalf("batch groups with %d and %d results merged (err %v)", batchLen(ca), batchLen(cb), err)
			}
			return
		}
		want, ok := oracleBody(rt.path, req, bodies, missing)
		if !ok {
			t.Fatalf("oracle rejected its own canonical bodies %s / %s", ca, cb)
		}
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s splice diverged from decode→merge→encode (err %v):\nbodies %s%s\nsplice %s\noracle %s",
				rt.path, err, ca, cb, got, want)
		}
	})
}

// TestBatchResultCountMismatchIsTorn: a replica answering a batch with
// a different number of results than another group already did is a
// retryable failure, so its sibling answers and the merge stays
// byte-identical. The liar answers only once group 0's reply has been
// located, so group 0's count is the first.
func TestBatchResultCountMismatchIsTorn(t *testing.T) {
	rng := rand.New(rand.NewSource(faultSeed(t)))
	curve := testCurve(t)
	ordered := sortedRecords(store.MustBuild(curve, randomRecords(rng, 200)))
	chunks := splitGroups(rng, ordered, 2)
	ref := apiServer(t, curve, ordered)
	g0 := apiServer(t, curve, chunks[0])
	var located0 atomic.Pointer[obs.Window] // group 0's latency window: one observation per located reply
	var posted atomic.Int64
	liar := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		for located0.Load().Count() < int(posted.Load()) {
			time.Sleep(time.Millisecond)
		}
		w.Write([]byte(`{"results":[[]]}` + "\n"))
	}))
	t.Cleanup(liar.Close)
	rt, rts := startRouter(t, Options{
		Groups:        [][]string{{g0.URL}, {liar.URL, apiServer(t, curve, chunks[1]).URL}},
		HedgeQuantile: -1, ProbeInterval: -1,
	})
	located0.Store(backendFor(rt, g0.URL).lat)
	body := fmt.Sprintf(`{"fingerprints":[%s,%s],"alpha":0.9,"sigma":20}`, fpJSON(ordered[3].FP), fpJSON(ordered[9].FP))
	_, want, _ := postBytes(t, ref.URL, "/search/statistical/batch", body)
	for i := 0; i < 4; i++ {
		posted.Add(1)
		code, got, _ := postBytes(t, rts.URL, "/search/statistical/batch", body)
		if code != http.StatusOK || !bytes.Equal(got, want) {
			t.Fatalf("request %d: status %d\nrouter %s\nref    %s", i, code, got, want)
		}
	}
	if backendFor(rt, liar.URL).failures.Value() == 0 {
		t.Fatal("a one-result reply to a two-query batch was accepted")
	}
	if n := backendFor(rt, g0.URL).failures.Value(); n != 0 {
		t.Fatalf("group 0's correct replies charged %d failures", n)
	}
}

// TestBatchTrailingBytesMerged: s3serve decodes a request with
// json.Decoder, which stops after the first value, so a batch body
// followed by stray bytes is answered by every backend. The router
// merges those answers like any other — it never reads the batch size
// out of the request — and charges no backend a failure.
func TestBatchTrailingBytesMerged(t *testing.T) {
	rng := rand.New(rand.NewSource(faultSeed(t)))
	curve := testCurve(t)
	ordered := sortedRecords(store.MustBuild(curve, randomRecords(rng, 200)))
	ref := apiServer(t, curve, ordered)
	var groups [][]string
	for _, chunk := range splitGroups(rng, ordered, 2) {
		groups = append(groups, []string{apiServer(t, curve, chunk).URL, apiServer(t, curve, chunk).URL})
	}
	rt, rts := startRouter(t, Options{Groups: groups, HedgeQuantile: -1, ProbeInterval: -1})
	req := fmt.Sprintf(`{"fingerprints":[%s,%s],"alpha":0.9,"sigma":20}`, fpJSON(ordered[3].FP), fpJSON(ordered[9].FP))
	for _, body := range []string{req + "}", req + req, req + " [1,2]"} {
		code, want, _ := postBytes(t, ref.URL, "/search/statistical/batch", body)
		if code != http.StatusOK {
			t.Fatalf("reference answered %d to %q", code, body)
		}
		for i := 0; i < 4; i++ {
			code, got, _ := postBytes(t, rts.URL, "/search/statistical/batch", body)
			if code != http.StatusOK || !bytes.Equal(got, want) {
				t.Fatalf("%q: status %d\nrouter %s\nref    %s", body, code, got, want)
			}
		}
	}
	for _, be := range rt.backends {
		be.br.mu.Lock()
		streak := be.br.failures
		be.br.mu.Unlock()
		if n := be.failures.Value(); n != 0 || streak != 0 {
			t.Errorf("backend %s: %d failures charged, breaker streak %d", be.url, n, streak)
		}
	}
}

// TestRouterReusesBackendConnections: with the default client, 8
// concurrent clients × 50 requests open at most 8 connections to each
// backend — the idle pool keeps what the in-flight budget admits, where
// the shared default transport kept 2 and dialed the rest anew. A first
// round holds one request per client at every backend until all 8 have
// arrived, so the 8 connections exist before any is reused: otherwise
// the transport may hand a connection freed mid-dial to a request that
// was waiting on that dial, and the finished dial becomes a ninth.
func TestRouterReusesBackendConnections(t *testing.T) {
	const clients, requests = 8, 50
	rng := rand.New(rand.NewSource(faultSeed(t)))
	curve := testCurve(t)
	ordered := sortedRecords(store.MustBuild(curve, randomRecords(rng, 300)))
	var groups [][]string
	var dials []*atomic.Int64
	var warming atomic.Bool
	warming.Store(true)
	for _, chunk := range splitGroups(rng, ordered, 2) {
		n, inner := new(atomic.Int64), apiHandler(t, curve, chunk)
		var arrived sync.WaitGroup
		arrived.Add(clients)
		ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if warming.Load() {
				arrived.Done()
				arrived.Wait()
			}
			inner.ServeHTTP(w, r)
		}))
		ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
			if st == http.StateNew {
				n.Add(1)
			}
		}
		ts.Start()
		t.Cleanup(ts.Close)
		groups, dials = append(groups, []string{ts.URL}), append(dials, n)
	}
	_, rts := startRouter(t, Options{Groups: groups, ProbeInterval: -1})

	round := func(requests int) {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < requests; i++ {
					resp, err := http.Post(rts.URL+"/search/statistical", "application/json",
						strings.NewReader(statBody(ordered[(c*requests+i)%len(ordered)].FP)))
					if err != nil {
						t.Error(err)
						return
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Errorf("status %d", resp.StatusCode)
						return
					}
				}
			}(c)
		}
		wg.Wait()
	}
	round(1)
	warming.Store(false)
	round(requests)
	for g, n := range dials {
		if n.Load() > clients {
			t.Errorf("backend %d: %d connections for %d concurrent clients", g, n.Load(), clients)
		}
	}
}

// BenchmarkMergeStat times the router's share of one statistical query
// over two groups (~92 matches each): validating and locating both
// backend bodies, then splicing them into a reused buffer.
func BenchmarkMergeStat(b *testing.B) {
	var bodies [][]byte
	for g := 0; g < 2; g++ {
		var sb strings.Builder
		sb.WriteString(`{"matches":[`)
		for i := 0; i < 92; i++ {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, `{"id":%d,"tc":%d,"x":%d,"y":%d}`, 1000*g+7*i, 25*i, i, 2*i)
		}
		sb.WriteString(`],"plan":{"blocks":41,"depth":12,"descentNodes":1234,"filterIters":9,"mass":0.8012345678901234,"threshold":1.2345e-7}}` + "\n")
		bodies = append(bodies, []byte(sb.String()))
	}
	outs := make([]*reply, 2)
	var out []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		parse := statRoute.parser()
		for g, body := range bodies {
			rp, err := located(body, parse)
			if err != nil {
				b.Fatal(err)
			}
			outs[g] = rp
		}
		out = append(statRoute.merge(append(out[:0], '{'), outs, nil, 0), "}\n"...)
	}
	b.SetBytes(int64(len(out)))
}
