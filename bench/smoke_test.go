package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// The -smoke configuration: all four workloads end to end, answers
// checked, traced pass included, in a few seconds.
func TestSmokeAllWorkloads(t *testing.T) {
	t0 := time.Now()
	cfg := smokeConfig()
	if testing.Short() {
		// -short is how the suite runs under -race, which slows the
		// servers several-fold: pace at a tenth of the rate, so the
		// backlog check still means something.
		for w := range cfg.PacedRPS {
			cfg.PacedRPS[w] /= 10
		}
	}
	scratch := t.TempDir()
	digests := map[string]string{}
	for _, w := range workloadNames {
		res, err := runWorkload(w, 5, cfg, true, true, scratch)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if !res.Correct {
			t.Errorf("%s: not correct: %v", w, res.Problems)
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: attempted %d failed %d", w, res.Attempted, res.Failed)
		}
		for _, d := range endToEnd {
			if s, ok := res.Metrics[d.Name]; !ok || s.NA || s.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %+v, want a positive value", w, d.Name, s)
			}
		}
		for _, d := range perLayer {
			if _, ok := res.Metrics[d.Name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", w, d.Name)
			}
		}
		if len(res.spans) == 0 {
			t.Errorf("%s: the traced pass recorded no spans", w)
		}
		digests[w] = res.AnswersDigest

		// The predictions written down before measuring.
		m := res.Metrics
		if w != wlCold && m["store.reads"].Value != 0 {
			t.Errorf("%s: store.reads = %v on a resident workload", w, m["store.reads"].Value)
		}
		if (w == wlResident || w == wlFleet) && m["core.plancache.hit_rate"].Value != 0 {
			t.Errorf("%s: plan cache hit rate %v with 0 %% repeats", w, m["core.plancache.hit_rate"].Value)
		}
		if (w == wlFleet) == m["router.span_us"].NA {
			t.Errorf("%s: router.span_us n/a = %v", w, m["router.span_us"].NA)
		}
		if w == wlCold && (m["store.reads"].Value == 0 || m["core.plancache.hit_rate"].Value == 0) {
			t.Errorf("cold_mixed: store.reads %v, plan cache hit rate %v; both must be exercised",
				m["store.reads"].Value, m["core.plancache.hit_rate"].Value)
		}
		if w == wlIngest && (m["ingest_p95_ms"].NA || m["core.live.seals"].Value == 0) {
			t.Errorf("ingest_monitor: ingest_p95_ms %+v seals %v", m["ingest_p95_ms"], m["core.live.seals"].Value)
		}
	}
	if digests[wlResident] != digests[wlCold] || digests[wlResident] != digests[wlFleet] {
		t.Errorf("answers_digest differs across the read-only workloads: %v", digests)
	}
	if el := time.Since(t0); el > 10*time.Second && !testing.Short() {
		t.Errorf("smoke run took %v, want under 10 s", el)
	}
}

// BENCHMARK.json (the contract with the driver) and the harness's metric
// lists must name the same things.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var b struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, harness has %d", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadNames[i] || w.Why != whyWorkload[w.Name] {
			t.Errorf("workload %d: %q / %q, harness has %q / %q", i, w.Name, w.Why, workloadNames[i], whyWorkload[workloadNames[i]])
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, harness has %d", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s %d: %+v, harness has %+v", kind, i, g, w)
			}
			if bounded && (g.Bound == nil || *g.Bound != w.Bound || *g.Bound > 0.25) {
				t.Errorf("%s %s: bound %v, harness has %v", kind, g.Name, g.Bound, w.Bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s %s: per-layer metrics have no bound", kind, g.Name)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", b.Paths)
	}
}
