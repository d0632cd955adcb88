package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"s3cbcd/internal/core"
	"s3cbcd/internal/hilbert"
	"s3cbcd/internal/store"
)

// planDepth is the plan tests' partition depth on their (8, 8) curve:
// 512 blocks, so a run's gap and length are one or two bytes each.
const planDepth = 9

// planServer is a static server over 600 random records, and a request
// body for a stored fingerprint whose plan has several runs.
func planServer(tb testing.TB) (*Server, string) {
	tb.Helper()
	curve := hilbert.MustNew(8, 8)
	r := rand.New(rand.NewSource(45))
	recs := make([]store.Record, 600)
	for i := range recs {
		fp := make([]byte, 8)
		for j := range fp {
			fp[j] = byte(r.Intn(256))
		}
		recs[i] = store.Record{FP: fp, ID: uint32(i), TC: uint32(i)}
	}
	db := store.MustBuild(curve, recs)
	s, err := New(db, Options{Depth: planDepth, Workers: 1})
	if err != nil {
		tb.Fatal(err)
	}
	fp, _ := json.Marshal(fpOf(db, 300))
	return s, fmt.Sprintf(`{"fingerprint":%s,"alpha":0.9,"sigma":30}`, fp)
}

// statWith answers one statistical request carrying plan (none when "").
func statWith(s *Server, body, plan string) (int, []byte) {
	req := httptest.NewRequest(http.MethodPost, "/search/statistical", strings.NewReader(body))
	if plan != "" {
		req.Header.Set(PlanHeader, plan)
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w.Code, w.Body.Bytes()
}

// matchesOf is a reply's matches member.
func matchesOf(t testing.TB, body []byte) json.RawMessage {
	t.Helper()
	var out struct {
		Matches json.RawMessage `json:"matches"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("%v: %s", err, body)
	}
	return out.Matches
}

// wellFormed is the contract of an accepted plan, checked independently
// of the code under test: at most MaxPlanIntervals runs, each non-empty,
// sorted, apart from the one before it and inside the 2^p blocks of the
// curve.
func wellFormed(g Geometry, runs []hilbert.Run) error {
	if len(runs) > MaxPlanIntervals {
		return fmt.Errorf("%d runs", len(runs))
	}
	for i, r := range runs {
		if r.Lo >= r.Hi || r.Hi > 1<<g.Depth || (i > 0 && r.Lo <= runs[i-1].Hi) {
			return fmt.Errorf("run %d %v empty, out of order, abutting or outside the curve", i, r)
		}
	}
	return nil
}

// planFor plans body at g through the router's entry point.
func planFor(tb testing.TB, g Geometry, body string) (string, core.Plan, bool) {
	tb.Helper()
	pl, err := g.Planner()
	if err != nil {
		tb.Fatal(err)
	}
	return PlanRequest(pl, []byte(body))
}

// TestPlanHeaderRefines: a router's plan, sent back to the backend it
// was computed for, yields the matches the backend finds planning
// itself, and the plan member carries the blocks and depth of the
// runs it refined.
func TestPlanHeaderRefines(t *testing.T) {
	s, body := planServer(t)
	hdr, plan, ok := planFor(t, s.geo, body)
	if !ok || len(plan.Intervals) < 2 {
		t.Fatalf("planner: ok=%v, %d runs; the fixture wants several", ok, len(plan.Intervals))
	}
	if err := wellFormed(s.geo, plan.Intervals); err != nil {
		t.Fatalf("the planner's own plan: %v", err)
	}
	code, self := statWith(s, body, "")
	pcode, planned := statWith(s, body, hdr)
	if code != http.StatusOK || pcode != http.StatusOK {
		t.Fatalf("status %d unplanned, %d planned: %s", code, pcode, planned)
	}
	if !bytes.Equal(matchesOf(t, self), matchesOf(t, planned)) {
		t.Fatalf("refining the router's plan changed the matches:\nself:    %s\nplanned: %s", self, planned)
	}
	if !bytes.Contains(self, AppendPlan(nil, plan)) {
		t.Fatalf("the router's plan member differs from the backend's own: %s", self)
	}
	want := fmt.Sprintf(`"plan":{"blocks":%d,"depth":%d,`, plan.Blocks, planDepth)
	if !bytes.Contains(planned, []byte(want)) {
		t.Fatalf("planned reply lacks %s: %s", want, planned)
	}
}

// TestPlanHeaderHostile: every malformed header is a 400 naming the
// header, and a header at another geometry is ignored — the answer is
// the unplanned one, byte for byte. Unsorted, overlapping and
// misaligned plans cannot be spelled in the run encoding.
func TestPlanHeaderHostile(t *testing.T) {
	s, body := planServer(t)
	g := s.geo
	hdr, _, _ := planFor(t, g, body)
	// enc spells raw bytes as a header at g.
	enc := func(raw ...byte) string { return g.String() + "." + planEncoding.EncodeToString(raw) }
	end := uint64(1) << g.Depth
	overCap := make([]hilbert.Run, MaxPlanIntervals+1)
	for i := range overCap {
		overCap[i] = hilbert.Run{Lo: uint64(2*i + 1), Hi: uint64(2*i + 2)}
	}
	bad := []struct{ name, hdr, why string }{
		{"empty run", enc(3, 0), "run 0 is empty"},
		{"zero gap", enc(3, 1, 0, 1), "run 1 abuts run 0"},
		{"past the curve", planHeader(g, []hilbert.Run{{Lo: 0, Hi: end + 1}}), "ends past the curve"},
		{"starts past the curve", planHeader(g, []hilbert.Run{{Lo: 1, Hi: 2}, {Lo: end, Hi: end + 1}}), "run 1 ends past the curve"},
		{"huge gap", planHeader(g, []hilbert.Run{{Lo: 1, Hi: 2}, {Lo: 1 << 63, Hi: 1<<63 + 1}}), "run 1 ends past the curve"},
		{"huge length", planHeader(g, []hilbert.Run{{Lo: 1, Hi: 1<<64 - 1}}), "run 0 ends past the curve"},
		{"overflowing uvarint", enc(0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 1), "overflows"},
		{"non-minimal uvarint", enc(0x81, 0x00, 1), "not minimally encoded"},
		{"non-minimal zero", enc(0x80, 0x00, 1), "not minimally encoded"},
		{"truncated uvarint", enc(1, 0x81), "truncated"},
		{"half a run", enc(5), "truncated"},
		{"over cap", planHeader(g, overCap), fmt.Sprintf("more than %d runs", MaxPlanIntervals)},
		{"bad base64", g.String() + ".!!not*base64", "illegal base64"},
		{"padded base64", g.String() + ".AAAAAAAAAAAAAAAAAAAAAAAA==", "illegal base64"},
		{"non-canonical base64", g.String() + ".AB", "illegal base64"},
		{"line break in base64", g.String() + ".\n", "line break"},
		{"no geometry", "AAAA", "prefix"},
		{"short geometry", "8.8." + planEncoding.EncodeToString(make([]byte, 18)), "is not dims.order.depth"},
		{"leading zero", "08.8.9." + planEncoding.EncodeToString(make([]byte, 18)), "is not dims.order.depth"},
		{"signed", "+8.8.9.", "is not dims.order.depth"},
	}
	for _, c := range bad {
		code, raw := statWith(s, body, c.hdr)
		if code != http.StatusBadRequest || !bytes.Contains(raw, []byte(c.why)) || !bytes.Contains(raw, []byte(PlanHeader)) {
			t.Errorf("%s header %.60q: status %d (%s), want 400 for %q", c.name, c.hdr, code, raw, c.why)
		}
	}

	// A valid plan does not excuse an invalid query: α outside (0, 1) is
	// refused as it is without the header.
	badAlpha := strings.Replace(body, `"alpha":0.9`, `"alpha":1.5`, 1)
	if code, raw := statWith(s, badAlpha, hdr); code != http.StatusBadRequest || !bytes.Contains(raw, []byte("alpha")) {
		t.Errorf("planned request with alpha 1.5: status %d (%s), want the unplanned 400", code, raw)
	}

	// A plan for another depth (or curve) is ignored: the backend plans
	// itself and answers exactly as without the header.
	_, self := statWith(s, body, "")
	for _, other := range []Geometry{{g.Dims, g.Order, g.Depth + 1}, {g.Dims, g.Order + 1, g.Depth}} {
		hdr, _, ok := planFor(t, other, body)
		if !ok {
			t.Fatalf("planner at %v refused the body", other)
		}
		code, raw := statWith(s, body, hdr)
		if code != http.StatusOK || !bytes.Equal(raw, self) {
			t.Fatalf("header at %v was not ignored: status %d\nwant %s\ngot  %s", other, code, self, raw)
		}
	}
}

// FuzzPlanHeader holds the backend to three properties on any
// PlanHeader value: it never panics and answers 200 or 400; every header
// it accepts at its geometry decodes to a well-formed plan that
// re-encodes to the same bytes, so a plan has one spelling; and every
// well-formed plan at its geometry is accepted.
func FuzzPlanHeader(f *testing.F) {
	s, body := planServer(f)
	hdr, _, _ := planFor(f, s.geo, body)
	g := s.geo.String() + "."
	for _, seed := range []string{hdr, g, "8.8.10." + hdr[len(g):], hdr[:len(hdr)-3], g + "AwA", g + "AwEAAQ", g + "gQAB", "1.1.1.x"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, h string) {
		code, raw := statWith(s, body, h)
		if code != http.StatusOK && code != http.StatusBadRequest {
			t.Fatalf("header %q: status %d (%s)", h, code, raw)
		}
		runs, used, err := decodePlanHeader(h, s.geo)
		if err != nil && code != http.StatusBadRequest {
			t.Fatalf("header %q fails to decode (%v) but was answered %d", h, err, code)
		}
		if err != nil || !used {
			return
		}
		if wf := wellFormed(s.geo, runs); wf != nil {
			t.Fatalf("header %q decodes to a malformed plan: %v", h, wf)
		}
		if code != http.StatusOK {
			t.Fatalf("well-formed header %q refused: %s", h, raw)
		}
		if again, ok := encodePlanHeader(s.geo, runs); !ok || again != h {
			t.Fatalf("accepted header %q re-encodes to %q", h, again)
		}
	})
}

// BenchmarkPlanHeader is the plan-once wire cost per request: the
// router's encode, then the backend's decode and its check of the runs
// (the executor's givenPlan, through RefineStat's first step), for
// plans of 66 and 433 runs — fleet_single's median and 95th percentile
// plan sizes — at D = 20, K = 8, p = 20.
func BenchmarkPlanHeader(b *testing.B) {
	g := Geometry{Dims: 20, Order: 8, Depth: 20}
	curve := hilbert.MustNew(g.Dims, g.Order)
	ix, err := core.NewIndex(store.MustBuild(curve, nil), g.Depth)
	if err != nil {
		b.Fatal(err)
	}
	e := core.NewEngine(ix, 1)
	q := make([]byte, g.Dims)
	sq := core.StatQuery{Alpha: 0.5, Model: core.IsoNormal{D: g.Dims, Sigma: 20}}
	for _, n := range []int{66, 433} {
		r := rand.New(rand.NewSource(int64(n)))
		runs := make([]hilbert.Run, n)
		at := uint64(0)
		for i := range runs {
			at += 1 + uint64(r.Intn(4000))
			runs[i] = hilbert.Run{Lo: at, Hi: at + 1 + uint64(r.Intn(4))}
			at = runs[i].Hi
		}
		b.Run(fmt.Sprintf("runs=%d", n), func(b *testing.B) {
			hdr := planHeader(g, runs)
			b.ReportMetric(float64(len(hdr)), "bytes")
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h, _ := encodePlanHeader(g, runs)
				got, _, err := decodePlanHeader(h, g)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := e.RefineStat(context.Background(), q, sq, got); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
