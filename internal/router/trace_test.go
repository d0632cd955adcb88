package router

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"s3cbcd/internal/obs"
	"s3cbcd/internal/store"
)

// traceTwoGroupFixture builds a 2-group, 1-replica fleet and a router
// over it, returning the router, its test server and a fingerprint
// present in the corpus.
func traceTwoGroupFixture(t *testing.T, opt Options) (*Router, *httptest.Server, []byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(faultSeed(t)))
	curve := testCurve(t)
	ordered := sortedRecords(store.MustBuild(curve, randomRecords(rng, 400)))
	chunks := splitGroups(rng, ordered, 2)
	groups := make([][]string, len(chunks))
	for gi, chunk := range chunks {
		groups[gi] = []string{apiServer(t, curve, chunk).URL}
	}
	opt.Groups = groups
	if opt.ProbeInterval == 0 {
		opt.ProbeInterval = -1
	}
	rt, rts := startRouter(t, opt)
	return rt, rts, ordered[rng.Intn(len(ordered))].FP
}

// findSpans returns every span named name anywhere in the forest.
func findSpans(spans []obs.SpanReport, name string) []obs.SpanReport {
	var out []obs.SpanReport
	for _, sp := range spans {
		if sp.Name == name {
			out = append(out, sp)
		}
		out = append(out, findSpans(sp.Children, name)...)
	}
	return out
}

// TestTraceRoundTripRouterTwoBackends is the tentpole acceptance check:
// a ?trace=1 stat query through the router over two backends comes back
// with one assembled tree — admission and merge spans, one group span
// per shard group, each holding a winning attempt annotated with its
// backend, and under each attempt the backend's own remote subtree with
// the plan/refine stage split — and /debug/traces serves it afterwards.
func TestTraceRoundTripRouterTwoBackends(t *testing.T) {
	rt, rts, fp := traceTwoGroupFixture(t, Options{})
	status, raw, _ := postBytes(t, rts.URL, "/search/statistical?trace=1",
		fmt.Sprintf(`{"fingerprint":%s,"alpha":0.8,"sigma":10}`, fpJSON(fp)))
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	var resp struct {
		Trace obs.TraceReport `json:"trace"`
	}
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	rep := resp.Trace
	if rep.Name != "s3router /search/statistical" {
		t.Fatalf("trace name %q", rep.Name)
	}
	if rep.TraceID == "" {
		t.Fatal("assembled trace lost its trace id")
	}
	if len(findSpans(rep.Spans, "admission")) != 1 || len(findSpans(rep.Spans, "merge")) != 1 {
		t.Fatalf("want one admission and one merge span, got spans %+v", rep.Spans)
	}
	groups := findSpans(rep.Spans, "group")
	if len(groups) != 2 {
		t.Fatalf("want 2 group spans, got %d", len(groups))
	}
	remotes := 0
	for _, g := range groups {
		attempts := findSpans(g.Children, "attempt")
		if len(attempts) != 1 {
			t.Fatalf("group %+v: want 1 attempt, got %d", g.Annotations, len(attempts))
		}
		a := attempts[0]
		if !strings.HasPrefix(a.Annotations["backend"], "http://") {
			t.Fatalf("attempt missing backend annotation: %+v", a.Annotations)
		}
		if a.Annotations["outcome"] != "ok" || a.Annotations["winner"] != "true" {
			t.Fatalf("attempt not a healthy winner: %+v", a.Annotations)
		}
		for _, c := range a.Children {
			if c.Service != "remote" {
				continue
			}
			remotes++
			if len(findSpans(c.Children, "plan")) != 1 || len(findSpans(c.Children, "refine")) != 1 {
				t.Fatalf("remote subtree lost the plan/refine split: %+v", c.Children)
			}
		}
	}
	if remotes != 2 {
		t.Fatalf("want a remote subtree under each attempt, got %d", remotes)
	}
	if rep.Blocks == 0 || rep.DescentNodes == 0 {
		t.Fatalf("remote work counters did not aggregate: %+v", rep)
	}

	// Both groups have answered, so the router now plans: the second
	// request's tree holds one plan span, the router's own, and each
	// remote subtree only refines.
	status, raw, _ = postBytes(t, rts.URL, "/search/statistical?trace=1",
		fmt.Sprintf(`{"fingerprint":%s,"alpha":0.8,"sigma":10}`, fpJSON(fp)))
	if status != http.StatusOK {
		t.Fatalf("planned request status %d: %s", status, raw)
	}
	var planned struct {
		Trace obs.TraceReport `json:"trace"`
	}
	if err := json.Unmarshal(raw, &planned); err != nil {
		t.Fatal(err)
	}
	if all, top := findSpans(planned.Trace.Spans, "plan"), 0; len(all) != 1 {
		t.Fatalf("planned request: want exactly one plan span, got %d: %+v", len(all), planned.Trace.Spans)
	} else {
		for _, sp := range planned.Trace.Spans {
			if sp.Name == "plan" {
				top++
			}
		}
		if top != 1 || all[0].Annotations["blocks"] == "" || all[0].Annotations["descentNodes"] == "" {
			t.Fatalf("the plan span is not the router's own annotated span: %+v", all[0])
		}
	}
	refines := 0
	for _, sp := range findSpans(planned.Trace.Spans, "attempt") {
		for _, c := range sp.Children {
			if c.Service == "remote" {
				refines += len(findSpans(c.Children, "refine"))
			}
		}
	}
	if refines != 2 {
		t.Fatalf("planned request: want a refine span in each of 2 remote subtrees, got %d", refines)
	}
	if planned.Trace.Blocks == 0 || planned.Trace.DescentNodes == 0 {
		t.Fatalf("router plan counters missing from the report: %+v", planned.Trace)
	}

	// The assembled tree is also retrievable from the live store.
	ds := httptest.NewServer(rt.Traces().Handler())
	defer ds.Close()
	dresp, err := http.Get(ds.URL + "/?view=recent&n=4")
	if err != nil {
		t.Fatal(err)
	}
	defer dresp.Body.Close()
	draw, _ := io.ReadAll(dresp.Body)
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/traces status %d: %s", dresp.StatusCode, draw)
	}
	var page struct {
		View   string            `json:"view"`
		Count  int               `json:"count"`
		Traces []obs.TraceReport `json:"traces"`
	}
	if err := json.Unmarshal(draw, &page); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, st := range page.Traces {
		if st.TraceID == rep.TraceID {
			found = true
		}
	}
	if !found {
		t.Fatalf("/debug/traces does not hold trace %s: %s", rep.TraceID, draw)
	}
}

// TestTraceHeaderPropagatedToBackends pins the wire protocol end to
// end: a client-supplied X-S3-Trace header forces backend tracing, and
// the assembled tree keeps the client's trace id.
func TestTraceHeaderPropagatedToBackends(t *testing.T) {
	_, rts, fp := traceTwoGroupFixture(t, Options{})
	sc := obs.SpanContext{TraceID: 0xABCDEF0123456789, SpanID: 7, Sampled: true, Depth: 1}
	req, err := http.NewRequest("POST", rts.URL+"/search/statistical",
		strings.NewReader(fmt.Sprintf(`{"fingerprint":%s,"alpha":0.8,"sigma":10}`, fpJSON(fp))))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceHeader, sc.String())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var out struct {
		Trace obs.TraceReport `json:"trace"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Trace.TraceID != "abcdef0123456789" {
		t.Fatalf("router minted a new trace id %q for a propagated header", out.Trace.TraceID)
	}
	if got := len(findSpans(out.Trace.Spans, "attempt")); got != 2 {
		t.Fatalf("want 2 attempts under a header-forced trace, got %d", got)
	}
}

// TestTracedResponseBodyIdentical pins byte-identity on every search
// route, complete and degraded: a traced merged body is the untraced one
// with a "trace" member appended before the closing brace, and nothing
// else changed.
func TestTracedResponseBodyIdentical(t *testing.T) {
	groups, a, b, r := wireFleet(t)
	_, rts := startRouter(t, Options{Groups: groups, ProbeInterval: -1})
	dead := httptest.NewServer(nil)
	dead.Close()
	_, degraded := startRouter(t, Options{
		Groups:  [][]string{groups[0], {dead.URL}},
		Partial: PartialDegrade, Retries: -1, ProbeInterval: -1, Logger: obs.NopLogger(),
	})
	for _, ts := range []*httptest.Server{rts, degraded} {
		for _, c := range wireCases(a, b, r) {
			_, plain, _ := postBytes(t, ts.URL, c[0], c[1])
			_, traced, _ := postBytes(t, ts.URL, c[0]+"?trace=1", c[1])
			head := bytes.TrimSuffix(plain, []byte("}\n"))
			rest, ok := bytes.CutPrefix(traced, head)
			if len(head) == len(plain) || !ok {
				t.Fatalf("%s: traced body does not extend the untraced one:\nuntraced %s\ntraced   %s", c[0], plain, traced)
			}
			tr, ok := bytes.CutPrefix(rest, []byte(`,"trace":`))
			if !ok || !bytes.HasSuffix(tr, []byte("}\n")) {
				t.Fatalf("%s: traced body adds more than a trailing trace member: %s", c[0], rest)
			}
			var rep obs.TraceReport
			if err := json.Unmarshal(tr[:len(tr)-2], &rep); err != nil || len(findSpans(rep.Spans, "group")) != 2 {
				t.Fatalf("%s: trace member is not the assembled two-group tree (%v): %s", c[0], err, tr)
			}
		}
	}
}

// TestRouterAttemptNoAllocsUntraced is the router-path twin of the
// engine's TestPlanStatNoAllocsUntraced: with tracing off (nil trace),
// the per-attempt tracing hooks on the scatter path must not allocate.
func TestRouterAttemptNoAllocsUntraced(t *testing.T) {
	var tr *obs.Trace
	be := &backend{url: "http://backend.invalid"}
	allocs := testing.AllocsPerRun(200, func() {
		g := traceGroupStart(tr, 1)
		a := traceAttemptStart(tr, g, be, true, 2)
		if _, ok := tr.Propagate(a); ok {
			t.Fatal("nil trace propagated")
		}
		traceAttemptEnd(tr, a, "ok", nil)
		traceSkip(tr, g, be, "budget")
		tr.EndSpan(g)
		tr.Annotate(a, "winner", "true")
	})
	if allocs != 0 {
		t.Fatalf("untraced attempt path allocates %.1f per run", allocs)
	}
}
