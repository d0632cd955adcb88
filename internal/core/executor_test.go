package core

import (
	"context"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"s3cbcd/internal/obs"
	"s3cbcd/internal/store"
)

// traceShape is what a traced query must agree on across servings: the
// span names with their annotation keys, and the work counters.
type traceShape struct {
	Spans                                      []string
	DescentNodes, Blocks, Candidates, Segments int64
}

func shapeOf(rep obs.TraceReport) traceShape {
	sh := traceShape{DescentNodes: rep.DescentNodes, Blocks: rep.Blocks,
		Candidates: rep.Candidates, Segments: rep.Segments}
	for _, sp := range rep.Spans {
		keys := make([]string, 0, len(sp.Annotations))
		for k := range sp.Annotations {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		sh.Spans = append(sh.Spans, sp.Name+" "+strings.Join(keys, ","))
	}
	return sh
}

// counterValues reads the executor's lifetime query counters.
func (x *executor) counterValues() map[string]int64 {
	return map[string]int64{
		"plans":        x.qmet.plans.Value(),
		"descentNodes": x.qmet.descentNodes.Value(),
		"candidates":   x.qmet.candidates.Value(),
		"stat":         x.qmet.statQueries.Value(),
		"range":        x.qmet.rangeQueries.Value(),
		"knn":          x.qmet.knnQueries.Value(),
		"batch":        x.qmet.batchQueries.Value(),
	}
}

// TestExecutorStaticEqualsLiveOneSegment pins "a static database is a
// one-segment snapshot": the same records served by an Engine over a
// store.DB, by a LiveIndex holding them in one sealed resident segment,
// and by a LiveIndex holding them in one cold segment answer every query
// kind with the same matches, plans, trace shape and counter movements —
// on a plan-cache miss and on a hit, and with the cache off.
func TestExecutorStaticEqualsLiveOneSegment(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	recs := make([]store.Record, 900)
	for i := range recs {
		recs[i] = randLiveRecord(r)
	}
	queries := make([][]byte, 12)
	for i := range queries {
		queries[i] = randLiveRecord(r).FP
	}
	sq := StatQuery{Alpha: 0.8, Model: IsoNormal{D: liveTestDims, Sigma: 2.5}}

	type serving struct {
		name string
		s    Searcher
		x    *executor
	}
	for _, planCache := range []bool{false, true} {
		db, err := store.Build(liveTestCurve(), recs)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := NewIndex(db, liveTestDepth)
		if err != nil {
			t.Fatal(err)
		}
		eng := NewEngineOpts(ix, EngineOptions{Workers: 2, PlanCache: planCache})
		servings := []serving{{"static", eng, &eng.executor}}
		for _, cold := range []bool{false, true} {
			opt := LiveOptions{Depth: liveTestDepth, Workers: 2, PlanCache: planCache,
				MemtableRecords: len(recs) + 1}
			name := "live-resident"
			if cold {
				name, opt.ColdRecords = "live-cold", 1
			}
			li, err := OpenLiveIndex(liveTestCurve(), t.TempDir(), opt)
			if err != nil {
				t.Fatal(err)
			}
			defer li.Close()
			if err := li.Ingest(recs); err != nil {
				t.Fatal(err)
			}
			if err := li.Flush(); err != nil {
				t.Fatal(err)
			}
			if st := li.Stats(); st.Segments != 1 || st.MemtableRecords != 0 || (st.ColdSegments == 1) != cold {
				t.Fatalf("%s: fixture is not one sealed segment: %+v", name, st)
			}
			servings = append(servings, serving{name, li, &li.executor})
		}

		type answer struct {
			Matches [][]Match
			Plan    Plan
			KNN     KNNStats
			Trace   traceShape
		}
		ask := func(s Searcher, kind string, q []byte) answer {
			tr := obs.NewTrace()
			ctx := obs.WithTrace(context.Background(), tr)
			var (
				a   answer
				ms  []Match
				err error
			)
			switch kind {
			case "stat":
				ms, a.Plan, err = s.SearchStat(ctx, q, sq)
			case "range":
				ms, a.Plan, err = s.SearchRange(ctx, q, 6)
			case "knn":
				ms, a.KNN, err = s.SearchKNN(ctx, q, 5, 0)
			case "batch":
				a.Matches, err = s.SearchStatBatch(ctx, queries, sq)
			}
			if err != nil {
				t.Fatal(err)
			}
			if kind != "batch" {
				a.Matches = [][]Match{ms}
			}
			a.Trace = shapeOf(tr.Report())
			return a
		}
		// Every query runs twice: with the cache on, the second statistical
		// plan is a hit.
		for _, kind := range []string{"stat", "range", "knn", "batch", "stat", "batch"} {
			for qi, q := range queries[:4] {
				want := ask(servings[0].s, kind, q)
				if kind == "stat" && !reflect.DeepEqual(want.Trace.Spans, []string{
					"plan blocks,descentNodes", "refine candidates,matches,segments,segmentsSkipped"}) {
					t.Fatalf("stat trace spans: %q", want.Trace.Spans)
				}
				for _, sv := range servings[1:] {
					if got := ask(sv.s, kind, q); !reflect.DeepEqual(got, want) {
						t.Fatalf("planCache=%v %s query %d: %s differs from static\n got %+v\nwant %+v",
							planCache, kind, qi, sv.name, got, want)
					}
				}
			}
		}
		want := servings[0].x.counterValues()
		for _, sv := range servings[1:] {
			if got := sv.x.counterValues(); !reflect.DeepEqual(got, want) {
				t.Errorf("planCache=%v: %s counters %v, static %v", planCache, sv.name, got, want)
			}
		}
		if want["candidates"] == 0 || want["plans"] == 0 {
			t.Fatalf("fixture refined or planned nothing: %v", want)
		}
	}
}

// TestLivePlanCacheHitAddsNoDescentNodes is the regression test for the
// drift the shared executor removed: a live index used to add the cached
// plan's descent nodes and blocks to the trace on a plan-cache hit, as
// if the plan had been computed again.
func TestLivePlanCacheHitAddsNoDescentNodes(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	li, err := OpenLiveIndex(liveTestCurve(), "", LiveOptions{Depth: liveTestDepth, PlanCache: true})
	if err != nil {
		t.Fatal(err)
	}
	defer li.Close()
	recs := make([]store.Record, 300)
	for i := range recs {
		recs[i] = randLiveRecord(r)
	}
	if err := li.Ingest(recs); err != nil {
		t.Fatal(err)
	}
	sq := StatQuery{Alpha: 0.8, Model: IsoNormal{D: liveTestDims, Sigma: 2.5}}
	q := recs[0].FP
	traced := func() obs.TraceReport {
		tr := obs.NewTrace()
		if _, _, err := li.SearchStat(obs.WithTrace(context.Background(), tr), q, sq); err != nil {
			t.Fatal(err)
		}
		return tr.Report()
	}
	if miss := traced(); miss.DescentNodes == 0 || miss.Blocks == 0 {
		t.Fatalf("plan-cache miss recorded no plan work: %+v", miss)
	}
	hit := traced()
	if st, _ := li.PlanCacheStats(); st.Hits != 1 {
		t.Fatalf("second query was not a plan-cache hit: %+v", st)
	}
	if hit.DescentNodes != 0 || hit.Blocks != 0 {
		t.Fatalf("plan-cache hit added %d descent nodes and %d blocks to the trace, want 0",
			hit.DescentNodes, hit.Blocks)
	}
}
