package router

// Chaos suite: an in-process flaky-backend harness injects 503s, torn
// responses, slow replies and hangs in front of real httpapi backends,
// and the tests assert the robustness headline — strict queries keep
// succeeding through retries, hedges and breakers with zero
// user-visible 5xx, and the router's metrics account for the injected
// failures. FAULT_SEED reruns a reported schedule.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"s3cbcd/internal/hilbert"
	"s3cbcd/internal/httpapi"
	"s3cbcd/internal/store"
)

// flaky proxies search requests to an inner backend handler, injecting
// one fault class per request according to the current probabilities.
// Probes (/healthz) and metadata pass through clean: the chaos under
// test is the request path, not the prober.
type flaky struct {
	inner http.Handler

	mu                        sync.Mutex
	rng                       *rand.Rand
	p503, pTorn, pSlow, pHang float64
	slow                      time.Duration

	n503, nTorn, nSlow, nHang atomic.Int64
}

func newFlaky(inner http.Handler, seed int64) *flaky {
	return &flaky{inner: inner, rng: rand.New(rand.NewSource(seed))}
}

func (f *flaky) setFaults(p503, pTorn, pSlow, pHang float64, slow time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.p503, f.pTorn, f.pSlow, f.pHang, f.slow = p503, pTorn, pSlow, pHang, slow
}

func (f *flaky) injected() int64 {
	return f.n503.Load() + f.nTorn.Load() + f.nSlow.Load() + f.nHang.Load()
}

func (f *flaky) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !strings.HasPrefix(r.URL.Path, "/search/") {
		f.inner.ServeHTTP(w, r)
		return
	}
	f.mu.Lock()
	roll := f.rng.Float64()
	p503, pTorn, pSlow, pHang, slow := f.p503, f.pTorn, f.pSlow, f.pHang, f.slow
	f.mu.Unlock()
	switch {
	case roll < p503:
		f.n503.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"error":"injected 503"}`))
	case roll < p503+pTorn:
		f.nTorn.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"matches":[{"id":`))
		if fl, ok := w.(http.Flusher); ok {
			fl.Flush()
		}
		panic(http.ErrAbortHandler) // drop the connection mid-body
	case roll < p503+pTorn+pHang:
		f.nHang.Add(1)
		// Drain the body first: the server only notices the router
		// abandoning the request (and cancels this context) once it is
		// free to read the connection.
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done() // hold the request until the router gives up
	case roll < p503+pTorn+pHang+pSlow:
		f.nSlow.Add(1)
		time.Sleep(slow)
		f.inner.ServeHTTP(w, r)
	default:
		f.inner.ServeHTTP(w, r)
	}
}

// apiHandler builds a backend handler over recs without a listener —
// the inner handler flaky proxies wrap.
func apiHandler(tb testing.TB, curve *hilbert.Curve, recs []store.Record) http.Handler {
	tb.Helper()
	db := store.MustBuild(curve, recs)
	s, err := httpapi.New(db, httpapi.Options{Depth: testDepth, Workers: 2})
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

func backendFor(rt *Router, url string) *backend {
	for _, be := range rt.backends {
		if be.url == url {
			return be
		}
	}
	return nil
}

// metrics5xxIsZero scans /metrics for router request counters in the
// 5xx class and requires every one to read zero.
func metrics5xxIsZero(t *testing.T, rts *httptest.Server) {
	t.Helper()
	resp, err := http.Get(rts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "s3_router_requests_total") && strings.Contains(line, `code="5xx"`) {
			if !strings.HasSuffix(line, " 0") {
				t.Errorf("user-visible 5xx recorded: %s", line)
			}
		}
	}
}

func statBody(fp []byte) string {
	return fmt.Sprintf(`{"fingerprint":%s,"alpha":0.8,"sigma":10}`, fpJSON(fp))
}

// TestChaosSerialAccounting runs serial strict queries against one
// group whose first replica injects 503s and torn responses: every
// query must succeed byte-identically to the single node, and the
// metrics must account for every injected failure exactly — each fault
// is one backend failure and one retry.
func TestChaosSerialAccounting(t *testing.T) {
	seed := faultSeed(t)
	curve := testCurve(t)
	rng := rand.New(rand.NewSource(seed))
	ordered := sortedRecords(store.MustBuild(curve, randomRecords(rng, 300)))
	ref := apiServer(t, curve, ordered)

	api := apiServer(t, curve, ordered) // group's data = whole corpus (1 group)
	fl := newFlaky(apiHandler(t, curve, ordered), seed+7)
	fl.setFaults(0.2, 0.15, 0, 0, 0)
	flakySrv := httptest.NewServer(fl)
	t.Cleanup(flakySrv.Close)

	rt, rts := startRouter(t, Options{
		Groups:        [][]string{{flakySrv.URL, api.URL}},
		Retries:       4,
		HedgeQuantile: -1, // accounting must not race a hedge
		ProbeInterval: -1,
	})

	const n = 120
	for i := 0; i < n; i++ {
		body := statBody(ordered[rng.Intn(len(ordered))].FP)
		refCode, refRaw, _ := postBytes(t, ref.URL, "/search/statistical", body)
		code, raw, _ := postBytes(t, rts.URL, "/search/statistical", body)
		if refCode != http.StatusOK || code != http.StatusOK {
			t.Fatalf("query %d: ref=%d router=%d (%s)", i, refCode, code, raw)
		}
		if !bytes.Equal(refRaw, raw) {
			t.Fatalf("query %d diverged under chaos:\nref:    %s\nrouter: %s", i, refRaw, raw)
		}
	}

	injected := fl.injected()
	if injected == 0 {
		t.Fatal("degenerate run: no faults injected")
	}
	be := backendFor(rt, flakySrv.URL)
	if got := be.failures.Value(); got != injected {
		t.Errorf("flaky backend failures %d, want %d (one per injected fault)", got, injected)
	}
	if got := rt.met.retries.Value(); got != injected {
		t.Errorf("retries %d, want %d (one per injected fault)", got, injected)
	}
	if clean := backendFor(rt, api.URL); clean.failures.Value() != 0 {
		t.Errorf("clean backend charged %d failures", clean.failures.Value())
	}
	metrics5xxIsZero(t, rts)
}

// TestChaosHedgeRescuesHangs makes the flaky replica hang every
// request it receives: only a hedge can rescue those queries, and all
// of them must still succeed with zero user-visible errors.
func TestChaosHedgeRescuesHangs(t *testing.T) {
	seed := faultSeed(t)
	curve := testCurve(t)
	rng := rand.New(rand.NewSource(seed))
	ordered := sortedRecords(store.MustBuild(curve, randomRecords(rng, 240)))

	clean := apiServer(t, curve, ordered)
	fl := newFlaky(apiHandler(t, curve, ordered), seed+13)
	fl.setFaults(0, 0, 0, 1.0, 0) // every proxied search hangs
	flakySrv := httptest.NewServer(fl)
	t.Cleanup(flakySrv.Close)

	rt, rts := startRouter(t, Options{
		Groups:        [][]string{{flakySrv.URL, clean.URL}},
		HedgeMin:      time.Millisecond,
		ProbeInterval: -1,
	})

	const n = 30
	for i := 0; i < n; i++ {
		code, raw, _ := postBytes(t, rts.URL, "/search/statistical", statBody(ordered[rng.Intn(len(ordered))].FP))
		if code != http.StatusOK {
			t.Fatalf("query %d: status %d (%s)", i, code, raw)
		}
	}
	hangs := fl.nHang.Load()
	if hangs == 0 {
		t.Fatal("degenerate run: the flaky replica was never primary")
	}
	// Every hang is tied to at least one hedge event: a hanging primary
	// forces a rescue hedge, and a hang on the hedge path was itself a
	// counted hedge. Wins can undercount hangs (a hedge aimed at the
	// hanging replica loses to the primary), so only their existence is
	// asserted.
	if got := rt.met.hedges.Value(); got < hangs {
		t.Errorf("hedges %d < hangs %d: some hung queries were rescued without a hedge?", got, hangs)
	}
	if rt.met.hedgeWins.Value() == 0 {
		t.Error("no hedge ever won though the primary replica hangs every request")
	}
	metrics5xxIsZero(t, rts)
}

// TestChaosBreakerTripsAndHeals drives a replica that always 503s
// until its breaker opens, then heals it and watches the half-open
// probe close the breaker again.
func TestChaosBreakerTripsAndHeals(t *testing.T) {
	seed := faultSeed(t)
	curve := testCurve(t)
	rng := rand.New(rand.NewSource(seed))
	ordered := sortedRecords(store.MustBuild(curve, randomRecords(rng, 200)))

	clean := apiServer(t, curve, ordered)
	fl := newFlaky(apiHandler(t, curve, ordered), seed+29)
	fl.setFaults(1.0, 0, 0, 0, 0)
	flakySrv := httptest.NewServer(fl)
	t.Cleanup(flakySrv.Close)

	rt, rts := startRouter(t, Options{
		Groups:           [][]string{{flakySrv.URL, clean.URL}},
		BreakerThreshold: 2,
		BreakerCooldown:  30 * time.Millisecond,
		HedgeQuantile:    -1,
		ProbeInterval:    -1,
	})
	be := backendFor(rt, flakySrv.URL)
	body := statBody(ordered[0].FP)

	for i := 0; i < 8; i++ {
		code, raw, _ := postBytes(t, rts.URL, "/search/statistical", body)
		if code != http.StatusOK {
			t.Fatalf("query %d: status %d (%s) — the clean sibling must cover", i, code, raw)
		}
	}
	if rt.met.breakerTrips.Value() == 0 {
		t.Fatal("breaker never tripped under constant 503s")
	}
	if be.br.snapshot() == breakerClosed {
		t.Fatal("breaker closed while the replica still 503s")
	}

	fl.setFaults(0, 0, 0, 0, 0) // replica heals
	deadline := time.Now().Add(5 * time.Second)
	for be.br.snapshot() != breakerClosed {
		if time.Now().After(deadline) {
			t.Fatal("breaker never closed after the replica healed")
		}
		time.Sleep(35 * time.Millisecond) // let the cooldown elapse
		if code, raw, _ := postBytes(t, rts.URL, "/search/statistical", body); code != http.StatusOK {
			t.Fatalf("status %d during heal (%s)", code, raw)
		}
	}
	metrics5xxIsZero(t, rts)
}

// TestChaosStormStrict is the headline: two shard groups, each with a
// flaky replica injecting the full fault mix under concurrent load,
// and every strict query must succeed — zero user-visible 5xx — with
// stat responses byte-identical to the single-node reference.
func TestChaosStormStrict(t *testing.T) {
	seed := faultSeed(t)
	curve := testCurve(t)
	rng := rand.New(rand.NewSource(seed))
	ordered := sortedRecords(store.MustBuild(curve, randomRecords(rng, 500)))
	ref := apiServer(t, curve, ordered)
	chunks := splitGroups(rng, ordered, 2)

	var flakies []*flaky
	var groups [][]string
	for i, chunk := range chunks {
		fl := newFlaky(apiHandler(t, curve, chunk), seed+101*int64(i))
		fl.setFaults(0.15, 0.10, 0.10, 0.05, 15*time.Millisecond)
		flakySrv := httptest.NewServer(fl)
		t.Cleanup(flakySrv.Close)
		cleanSrv := apiServer(t, curve, chunk)
		flakies = append(flakies, fl)
		groups = append(groups, []string{flakySrv.URL, cleanSrv.URL})
	}

	rt, rts := startRouter(t, Options{
		Groups:        groups,
		Retries:       3,
		HedgeMin:      time.Millisecond,
		ProbeInterval: 25 * time.Millisecond,
	})

	// Pre-compute reference bodies serially, then storm concurrently.
	type query struct {
		path, body, want string
		knn              bool
	}
	var queries []query
	for i := 0; i < 40; i++ {
		fp := ordered[rng.Intn(len(ordered))].FP
		switch i % 4 {
		case 0:
			queries = append(queries, query{path: "/search/statistical", body: statBody(fp)})
		case 1:
			queries = append(queries, query{path: "/search/range",
				body: fmt.Sprintf(`{"fingerprint":%s,"epsilon":120}`, fpJSON(fp))})
		case 2:
			queries = append(queries, query{path: "/search/statistical/batch",
				body: fmt.Sprintf(`{"fingerprints":[%s],"alpha":0.9,"sigma":20}`, fpJSON(fp))})
		case 3:
			queries = append(queries, query{path: "/search/knn",
				body: fmt.Sprintf(`{"fingerprint":%s,"k":8}`, fpJSON(fp)), knn: true})
		}
	}
	for i := range queries {
		code, raw, _ := postBytes(t, ref.URL, queries[i].path, queries[i].body)
		if code != http.StatusOK {
			t.Fatalf("reference %s: status %d", queries[i].path, code)
		}
		queries[i].want = string(raw)
	}

	const workers = 8
	const rounds = 3
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				for qi, q := range queries {
					if (qi+round)%workers != w%workers {
						continue
					}
					code, raw, _ := postBytes(t, rts.URL, q.path, q.body)
					if code != http.StatusOK {
						t.Errorf("%s under chaos: status %d (%s)", q.path, code, raw)
						continue
					}
					if q.knn {
						compareKNN(t, []byte(q.want), raw)
					} else if string(raw) != q.want {
						t.Errorf("%s diverged under chaos:\nref:    %s\nrouter: %s", q.path, q.want, raw)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	var injected int64
	for _, fl := range flakies {
		injected += fl.injected()
	}
	if injected == 0 {
		t.Fatal("degenerate storm: no faults injected")
	}
	t.Logf("storm: injected=%d retries=%d hedges=%d hedgeWins=%d trips=%d",
		injected, rt.met.retries.Value(), rt.met.hedges.Value(),
		rt.met.hedgeWins.Value(), rt.met.breakerTrips.Value())
	if rt.met.retries.Value()+rt.met.hedges.Value() == 0 {
		t.Error("chaos survived without a single retry or hedge — faults cannot have reached the router")
	}
	metrics5xxIsZero(t, rts)
}
