package s3

// Router tail-latency benchmark: the scatter/gather coordinator in
// front of a two-group, two-replica s3serve deployment where exactly
// one replica is uniformly slow — the classic tail-at-scale setup that
// hedged requests exist for. The same query stream runs through a
// hedging-disabled router and a hedging-enabled one; per-query wall
// times give p50/p99 for both.
//
//	go test -run TestRouterBenchSweep -bench-router -timeout 30m .
//
// regenerates BENCH_router.json in the repository root. The test
// verifies, query by query, that the hedged and unhedged routers
// return byte-identical bodies (hedging must never change an answer),
// then gates on hedging cutting p99 by at least 2x — the same gate the
// CI smoke job asserts at a smaller corpus via -bench-router-records.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"s3cbcd/internal/experiments"
	"s3cbcd/internal/fingerprint"
	"s3cbcd/internal/hilbert"
	"s3cbcd/internal/httpapi"
	"s3cbcd/internal/router"
	"s3cbcd/internal/store"
)

var (
	benchRouterFlag = flag.Bool("bench-router", false,
		"run the hedged vs unhedged router comparison and write BENCH_router.json")
	benchRouterRecords = flag.Int("bench-router-records", 100_000,
		"corpus size for -bench-router")
)

const (
	routerBenchQueries = 200
	routerBenchWarm    = 32
	// routerBenchSlow is the extra service time of the one slow replica.
	// It dwarfs the fast replicas' sub-millisecond latency, so the
	// unhedged p99 is pinned to it while the hedged p99 escapes via the
	// sibling.
	routerBenchSlow = 25 * time.Millisecond
)

// slowReplica delays every search before delegating: a replica that is
// up, healthy and correct — just uniformly slow (GC thrash, a cold
// page cache, an overloaded box).
func slowReplica(inner http.Handler, delay time.Duration) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/search/") {
			time.Sleep(delay)
		}
		inner.ServeHTTP(w, r)
	})
}

// percentile is the nearest-rank percentile of a sorted duration slice.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// metricValue scans a /metrics exposition for an exact family name and
// returns its value (0 when absent).
func metricValue(text, family string) float64 {
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, family+" ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimPrefix(line, family+" "), 64)
		if err == nil {
			return v
		}
	}
	return 0
}

func TestRouterBenchSweep(t *testing.T) {
	if !*benchRouterFlag {
		t.Skip("pass -bench-router to run the router comparison")
	}
	n := *benchRouterRecords
	curve := hilbert.MustNew(fingerprint.D, 8)
	global, err := store.Build(curve, experiments.FPCorpus(n, 1))
	if err != nil {
		t.Fatal(err)
	}
	queries, _ := experiments.DistortedQueries(global, routerBenchQueries, corpusBenchSigma, 2)

	// Two contiguous key-range groups, each with two replicas of the
	// same chunk DB; group 0's second replica is the slow one.
	cut := global.Len() / 2
	chunk := func(lo, hi int) *store.DB {
		recs := make([]store.Record, 0, hi-lo)
		for i := lo; i < hi; i++ {
			fp := make([]byte, len(global.FP(i)))
			copy(fp, global.FP(i))
			recs = append(recs, store.Record{FP: fp, ID: global.ID(i), TC: global.TC(i), X: global.X(i), Y: global.Y(i)})
		}
		return store.MustBuild(curve, recs)
	}
	var groups [][]string
	for g, bounds := range [][2]int{{0, cut}, {cut, global.Len()}} {
		db := chunk(bounds[0], bounds[1])
		grp := make([]string, 0, 2)
		for rep := 0; rep < 2; rep++ {
			api, err := httpapi.New(db, httpapi.Options{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			var h http.Handler = api
			if g == 0 && rep == 1 {
				h = slowReplica(api, routerBenchSlow)
			}
			srv := httptest.NewServer(h)
			t.Cleanup(srv.Close)
			grp = append(grp, srv.URL)
		}
		groups = append(groups, grp)
	}

	startRouter := func(opt router.Options) (*httptest.Server, *router.Router) {
		opt.Groups = groups
		opt.ProbeInterval = -1 // static healthy fixture; probes are noise here
		rt, err := router.New(opt)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rt.Close)
		srv := httptest.NewServer(rt)
		t.Cleanup(srv.Close)
		return srv, rt
	}
	unhedged, _ := startRouter(router.Options{HedgeQuantile: -1})
	hedged, _ := startRouter(router.Options{}) // default quantile 0.9, HedgeMin 1ms

	bodies := make([][]byte, len(queries))
	for i, q := range queries {
		fp := make([]int, len(q))
		for j, b := range q {
			fp[j] = int(b)
		}
		raw, err := json.Marshal(map[string]interface{}{
			"fingerprint": fp, "alpha": corpusBenchAlpha, "sigma": corpusBenchSigma,
		})
		if err != nil {
			t.Fatal(err)
		}
		bodies[i] = raw
	}

	post := func(srv *httptest.Server, body []byte) []byte {
		resp, err := http.Post(srv.URL+"/search/statistical", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, buf.String())
		}
		return buf.Bytes()
	}

	// Warm both routers: pages in the chunk structures and fills the
	// per-backend latency windows the hedge quantile reads.
	for i := 0; i < routerBenchWarm; i++ {
		post(unhedged, bodies[i%len(bodies)])
		post(hedged, bodies[i%len(bodies)])
	}

	run := func(srv *httptest.Server) ([]time.Duration, [][]byte) {
		lats := make([]time.Duration, len(bodies))
		outs := make([][]byte, len(bodies))
		for i, body := range bodies {
			t0 := time.Now()
			outs[i] = post(srv, body)
			lats[i] = time.Since(t0)
		}
		sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
		return lats, outs
	}
	unhedgedLats, unhedgedOuts := run(unhedged)
	hedgedLats, hedgedOuts := run(hedged)

	// Hedging must be invisible in the answers: byte-identical bodies
	// for every query.
	for i := range bodies {
		if !bytes.Equal(unhedgedOuts[i], hedgedOuts[i]) {
			t.Fatalf("query %d: hedged body differs from unhedged:\n got %s\nwant %s",
				i, hedgedOuts[i], unhedgedOuts[i])
		}
	}

	uP50, uP99 := percentile(unhedgedLats, 0.50), percentile(unhedgedLats, 0.99)
	hP50, hP99 := percentile(hedgedLats, 0.50), percentile(hedgedLats, 0.99)
	factor := float64(uP99) / float64(hP99)

	resp, err := http.Get(hedged.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var mbuf bytes.Buffer
	if _, err := mbuf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	hedges := metricValue(mbuf.String(), "s3_router_hedges_total")
	hedgeWins := metricValue(mbuf.String(), "s3_router_hedge_wins_total")

	t.Logf("unhedged p50 %v p99 %v; hedged p50 %v p99 %v (p99 %.1fx better); hedges %.0f, wins %.0f",
		uP50, uP99, hP50, hP99, factor, hedges, hedgeWins)

	if factor < 2 {
		t.Errorf("hedged p99 %v is %.2fx better than unhedged %v, want >= 2x", hP99, factor, uP99)
	}
	if hedges == 0 || hedgeWins == 0 {
		t.Errorf("hedged router recorded %v hedges / %v wins; the slow replica should force both > 0", hedges, hedgeWins)
	}

	report := map[string]interface{}{
		"benchmark": "scatter/gather router: hedged vs unhedged p99 with one uniformly slow replica",
		"corpus": map[string]interface{}{
			"records":  n,
			"dims":     fingerprint.D,
			"queries":  len(queries),
			"groups":   2,
			"replicas": 2,
			"alpha":    corpusBenchAlpha,
			"sigma":    corpusBenchSigma,
		},
		"slow_replica_delay_ms": float64(routerBenchSlow) / float64(time.Millisecond),
		"host": map[string]interface{}{
			"num_cpu":    runtime.NumCPU(),
			"go_version": runtime.Version(),
		},
		"note": fmt.Sprintf("Two key-range groups x two s3serve replicas; group 0's second replica sleeps "+
			"%v before every search. Hedged and unhedged responses verified byte-identical for every query "+
			"in-run. Hedge delay is the min recent p90 across a group's replicas (HedgeMin 1ms floor). "+
			"Timings on a %d-core host.", routerBenchSlow, runtime.NumCPU()),
		"unhedged_p50_ms": float64(uP50) / float64(time.Millisecond),
		"unhedged_p99_ms": float64(uP99) / float64(time.Millisecond),
		"hedged_p50_ms":   float64(hP50) / float64(time.Millisecond),
		"hedged_p99_ms":   float64(hP99) / float64(time.Millisecond),
		"p99_factor":      factor,
		"hedges":          hedges,
		"hedge_wins":      hedgeWins,
	}
	raw, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_router.json", append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Log("wrote BENCH_router.json")
}
