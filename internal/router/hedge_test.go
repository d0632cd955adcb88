package router

// Hedging policy: the trigger (hedgeDelay's outlier fence) on synthetic
// latency windows, the launch rule that never aims a hedge at the
// replica it is hedging, and the end-to-end rescue of a uniformly slow
// replica. TestHedgeRescuesSlowReplica runs under `make chaos-router`.

import (
	"bytes"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"s3cbcd/internal/obs"
	"s3cbcd/internal/store"
)

// hedgeGroup builds a router over one group of two replicas that are
// never contacted: hedgeDelay reads only their latency windows.
func hedgeGroup(t *testing.T, hedgeMin time.Duration) (*Router, []*backend) {
	t.Helper()
	rt, err := New(Options{
		Groups:        [][]string{{"http://a.invalid", "http://b.invalid"}},
		HedgeMin:      hedgeMin,
		ProbeInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt, rt.groups[0]
}

// lognormal draws n service times (seconds) with median 1 ms and shape
// sigma: a heavy right tail of queries that are slow on every replica.
func lognormal(rng *rand.Rand, n int, sigma float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 1e-3 * math.Exp(sigma*rng.NormFloat64())
	}
	return out
}

// exceeding is the share of samples longer than d.
func exceeding(samples []float64, d time.Duration) float64 {
	n := 0
	for _, s := range samples {
		if s > d.Seconds() {
			n++
		}
	}
	return float64(n) / float64(len(samples))
}

func TestHedgeDelayFence(t *testing.T) {
	const sigma = 0.9 // about loopback fleet_single's p95/p50 ratio

	t.Run("healthy tail hedges outliers only", func(t *testing.T) {
		rt, grp := hedgeGroup(t, time.Microsecond)
		rng := rand.New(rand.NewSource(1))
		for _, s := range lognormal(rng, 2*len(grp)*128, sigma) {
			grp[rng.Intn(len(grp))].lat.Observe(s)
		}
		traffic := lognormal(rng, 20000, sigma)
		d := rt.hedgeDelay(grp)
		p90 := time.Duration(grp[0].lat.Quantile(0.9) * float64(time.Second))
		fence, fixed := exceeding(traffic, d), exceeding(traffic, p90)
		t.Logf("fence %v hedges %.2f%% of attempts; the p90 rule (%v) hedges %.2f%%", d, 100*fence, p90, 100*fixed)
		if fence > 0.02 {
			t.Errorf("fence %v hedges %.2f%% of same-distribution attempts, want <= 2%%", d, 100*fence)
		}
		if fixed < 0.05 {
			t.Errorf("fixture too light-tailed: the p90 rule hedges only %.2f%%", 100*fixed)
		}
	})

	t.Run("slow replica keys on the fast sibling", func(t *testing.T) {
		rt, grp := hedgeGroup(t, time.Microsecond)
		rng := rand.New(rand.NewSource(2))
		slow, fast := grp[0], grp[1]
		for _, s := range lognormal(rng, 128, sigma) {
			slow.lat.Observe(s + 0.025)
			fast.lat.Observe(s)
		}
		d := rt.hedgeDelay(grp)
		if want := rt.hedgeDelay([]*backend{fast}); d != want {
			t.Errorf("delay %v, want the fast sibling's fence %v", d, want)
		}
		if d >= 25*time.Millisecond {
			t.Errorf("delay %v would not rescue a replica 25ms slower", d)
		}
	})

	t.Run("too few samples", func(t *testing.T) {
		rt, grp := hedgeGroup(t, 2*time.Millisecond)
		for _, be := range grp {
			for i := 0; i < 7; i++ {
				be.lat.Observe(0.5)
			}
		}
		if d := rt.hedgeDelay(grp); d != 16*time.Millisecond {
			t.Errorf("delay %v with 7 samples per replica, want HedgeMin*8 = 16ms", d)
		}
	})

	t.Run("HedgeMin floors the fence", func(t *testing.T) {
		rt, grp := hedgeGroup(t, 5*time.Millisecond)
		rng := rand.New(rand.NewSource(3))
		for _, be := range grp {
			for _, s := range lognormal(rng, 64, sigma) {
				be.lat.Observe(s / 1000) // microsecond service times
			}
		}
		if d := rt.hedgeDelay(grp); d != 5*time.Millisecond {
			t.Errorf("delay %v, want the 5ms HedgeMin floor", d)
		}
	})
}

// TestHedgeSkipsReplicaInFlight: with its only sibling's breaker open, a
// hedge has nowhere to go. It must not double up on the slow replica it
// was meant to rescue, and a hedge that launches nothing is not counted.
func TestHedgeSkipsReplicaInFlight(t *testing.T) {
	curve := testCurve(t)
	rng := rand.New(rand.NewSource(faultSeed(t)))
	ordered := sortedRecords(store.MustBuild(curve, randomRecords(rng, 100)))

	var searches atomic.Int64
	inner := apiHandler(t, curve, ordered)
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/search/") {
			searches.Add(1)
			time.Sleep(60 * time.Millisecond) // far past the 8ms cold-window delay
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(slow.Close)
	open := apiServer(t, curve, ordered)

	rt, rts := startRouter(t, Options{
		Groups:           [][]string{{slow.URL, open.URL}},
		HedgeMin:         time.Millisecond,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Hour,
		ProbeInterval:    -1,
	})
	backendFor(rt, open.URL).br.failure()

	code, raw, _ := postBytes(t, rts.URL, "/search/statistical?trace=1", statBody(ordered[0].FP))
	if code != http.StatusOK {
		t.Fatalf("status %d (%s)", code, raw)
	}
	if n := searches.Load(); n != 1 {
		t.Errorf("the slow replica received %d searches, want 1: a hedge doubled up on it", n)
	}
	if n := rt.met.hedges.Value(); n != 0 {
		t.Errorf("hedges_total %d for a hedge that launched nothing", n)
	}
	rep := traceOf(t, raw)
	if !slices.ContainsFunc(findSpans(rep.Spans, "skip"), func(s obs.SpanReport) bool {
		return s.Annotations["backend"] == open.URL && s.Annotations["reason"] == "breaker"
	}) {
		t.Errorf("no breaker skip span for the open sibling: %+v", rep.Spans)
	}
}

// TestHedgeRescuesSlowReplica is the rescue property hedging exists
// for: one group of two replicas, one of them sleeping 50ms before every
// search. Round-robin sends it half the queries, so the unhedged p99 is
// pinned to the sleep; the hedged router escapes through the sibling.
// Hedging must never change an answer: every body is byte-identical
// between the two routers.
func TestHedgeRescuesSlowReplica(t *testing.T) {
	const (
		queries = 40
		delay   = 50 * time.Millisecond
	)
	curve := testCurve(t)
	rng := rand.New(rand.NewSource(faultSeed(t)))
	ordered := sortedRecords(store.MustBuild(curve, randomRecords(rng, 400)))

	inner := apiHandler(t, curve, ordered)
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/search/") {
			time.Sleep(delay)
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(slow.Close)
	groups := [][]string{{slow.URL, apiServer(t, curve, ordered).URL}}

	bodies := make([]string, queries)
	for i := range bodies {
		bodies[i] = statBody(ordered[rng.Intn(len(ordered))].FP)
	}
	run := func(opt Options) (*Router, time.Duration, [][]byte) {
		opt.Groups, opt.ProbeInterval = groups, -1
		rt, rts := startRouter(t, opt)
		lats := make([]time.Duration, queries)
		outs := make([][]byte, queries)
		for i, body := range bodies {
			t0 := time.Now()
			code, raw, _ := postBytes(t, rts.URL, "/search/statistical", body)
			lats[i] = time.Since(t0)
			if code != http.StatusOK {
				t.Fatalf("query %d: status %d (%s)", i, code, raw)
			}
			outs[i] = raw
		}
		slices.Sort(lats)
		return rt, lats[int(math.Ceil(0.99*queries))-1], outs
	}
	_, unhedgedP99, unhedged := run(Options{HedgeQuantile: -1})
	rt, hedgedP99, hedged := run(Options{})

	for i := range bodies {
		if !bytes.Equal(unhedged[i], hedged[i]) {
			t.Fatalf("query %d: hedged body differs:\nhedged   %s\nunhedged %s", i, hedged[i], unhedged[i])
		}
	}
	hedges, wins := rt.met.hedges.Value(), rt.met.hedgeWins.Value()
	t.Logf("p99 unhedged %v, hedged %v (%.1fx); hedges %d, wins %d",
		unhedgedP99, hedgedP99, float64(unhedgedP99)/float64(hedgedP99), hedges, wins)
	if 2*hedgedP99 > unhedgedP99 {
		t.Errorf("hedged p99 %v is not at most half the unhedged %v", hedgedP99, unhedgedP99)
	}
	if hedges == 0 || wins == 0 {
		t.Errorf("%d hedges, %d wins: the slow replica should force both above 0", hedges, wins)
	}
}
