package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"s3cbcd/internal/bitkey"
	"s3cbcd/internal/hilbert"
	"s3cbcd/internal/store"
)

// planDepth is the plan tests' partition depth on their (8, 8) curve:
// blocks are 2^55 wide, so a key is 3 bytes on the wire (the top 17 of
// its 65 bits, the lowest 7 of them zero on a block boundary).
const planDepth = 9

// planServer is a static server over 600 random records, and a request
// body for a stored fingerprint whose plan has several intervals.
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
// of the code under test: at most MaxPlanIntervals intervals, each
// non-empty, sorted and disjoint, on depth-p block boundaries and
// inside the curve.
func wellFormed(g Geometry, ivs []hilbert.Interval) error {
	if len(ivs) > MaxPlanIntervals {
		return fmt.Errorf("%d intervals", len(ivs))
	}
	bits := g.Dims * g.Order
	block := bitkey.Zero.AddPow2(uint(bits - g.Depth))
	end := bitkey.Zero.AddPow2(uint(bits))
	for i, iv := range ivs {
		for _, k := range []bitkey.Key{iv.Start, iv.End} {
			if !k.Sub(k.Shr(uint(bits - g.Depth)).Shl(uint(bits - g.Depth))).IsZero() {
				return fmt.Errorf("interval %d: key %v not a multiple of %v", i, k, block)
			}
		}
		if !iv.Start.Less(iv.End) || end.Less(iv.End) || (i > 0 && iv.Start.Less(ivs[i-1].End)) {
			return fmt.Errorf("interval %d [%v, %v) empty, out of order or outside the curve", i, iv.Start, iv.End)
		}
	}
	return nil
}

// TestPlanHeaderRefines: a router's plan, sent back to the backend it
// was computed for, yields the matches the backend finds planning
// itself, and the plan member carries the blocks and depth of the
// intervals it refined.
func TestPlanHeaderRefines(t *testing.T) {
	s, body := planServer(t)
	pl, err := NewPlanner(s.geo)
	if err != nil {
		t.Fatal(err)
	}
	hdr, plan, ok := pl.Plan([]byte(body))
	if !ok || len(plan.Intervals) < 2 {
		t.Fatalf("planner: ok=%v, %d intervals; the fixture wants several", ok, len(plan.Intervals))
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
// the unplanned one, byte for byte.
func TestPlanHeaderHostile(t *testing.T) {
	s, body := planServer(t)
	pl, err := NewPlanner(s.geo)
	if err != nil {
		t.Fatal(err)
	}
	_, plan, _ := pl.Plan([]byte(body))
	ivs := plan.Intervals
	g := s.geo
	block := bitkey.Zero.AddPow2(uint(g.Dims*g.Order - g.Depth))
	curveEnd := bitkey.Zero.AddPow2(uint(g.Dims * g.Order))
	with := func(edit func([]hilbert.Interval) []hilbert.Interval) string {
		return planHeader(g, edit(append([]hilbert.Interval(nil), ivs...)))
	}
	shift := uint(g.Dims*g.Order - g.Depth)
	overCap := make([]hilbert.Interval, MaxPlanIntervals+1)
	for i := range overCap {
		start := bitkey.FromUint64(uint64(2 * i)).Shl(shift)
		overCap[i] = hilbert.Interval{Start: start, End: start.Add(block)}
	}
	bad := []struct{ name, hdr, why string }{
		{"unsorted", with(func(v []hilbert.Interval) []hilbert.Interval { v[0], v[1] = v[1], v[0]; return v }), "out of order"},
		{"overlapping", with(func(v []hilbert.Interval) []hilbert.Interval {
			return append(v[:1], append([]hilbert.Interval{{Start: v[0].Start, End: v[0].End.Add(block)}}, v[1:]...)...)
		}), "overlaps"},
		{"empty interval", with(func(v []hilbert.Interval) []hilbert.Interval { v[0].End = v[0].Start; return v }), "is empty"},
		{"misaligned start", with(func(v []hilbert.Interval) []hilbert.Interval { v[0].Start = v[0].Start.AddPow2(49); return v }), "block boundaries"},
		{"misaligned end", with(func(v []hilbert.Interval) []hilbert.Interval { v[0].End = v[0].End.AddPow2(50); return v }), "block boundaries"},
		{"out of curve", with(func(v []hilbert.Interval) []hilbert.Interval {
			return append(v, hilbert.Interval{Start: curveEnd, End: curveEnd.Add(block)})
		}), "outside the curve"},
		{"over cap", planHeader(g, overCap), fmt.Sprintf("more than %d intervals", MaxPlanIntervals)},
		{"bad base64", g.String() + ".!!not*base64", "illegal base64"},
		{"padded base64", g.String() + ".AAAAAAAAAAAAAAAAAAAAAAAA==", "illegal base64"},
		{"non-canonical base64", g.String() + ".AB", "illegal base64"},
		{"line break in base64", g.String() + ".\n", "line break"},
		{"partial interval", g.String() + "." + planEncoding.EncodeToString(make([]byte, 5)), "whole"},
		{"no geometry", "AAAA", "prefix"},
		{"short geometry", "8.8." + planEncoding.EncodeToString(make([]byte, 18)), "is not dims.order.depth"},
		{"leading zero", "08.8.9." + planEncoding.EncodeToString(make([]byte, 18)), "is not dims.order.depth"},
		{"signed", "+8.8.9.", "is not dims.order.depth"},
	}
	for _, c := range bad {
		code, raw := statWith(s, body, c.hdr)
		if code != http.StatusBadRequest || !bytes.Contains(raw, []byte(c.why)) {
			t.Errorf("%s header %.60q: status %d (%s), want 400 for %q", c.name, c.hdr, code, raw, c.why)
		}
	}

	// A valid plan does not excuse an invalid query: α outside (0, 1) is
	// refused as it is without the header.
	hdr, _, _ := pl.Plan([]byte(body))
	badAlpha := strings.Replace(body, `"alpha":0.9`, `"alpha":1.5`, 1)
	if code, raw := statWith(s, badAlpha, hdr); code != http.StatusBadRequest || !bytes.Contains(raw, []byte("alpha")) {
		t.Errorf("planned request with alpha 1.5: status %d (%s), want the unplanned 400", code, raw)
	}

	// A plan for another depth (or curve) is ignored: the backend plans
	// itself and answers exactly as without the header.
	_, self := statWith(s, body, "")
	for _, other := range []Geometry{{g.Dims, g.Order, g.Depth + 1}, {g.Dims, g.Order + 1, g.Depth}} {
		opl, err := NewPlanner(other)
		if err != nil {
			t.Fatal(err)
		}
		hdr, _, ok := opl.Plan([]byte(body))
		if !ok {
			t.Fatalf("planner at %v refused the body", other)
		}
		code, raw := statWith(s, body, hdr)
		if code != http.StatusOK || !bytes.Equal(raw, self) {
			t.Fatalf("header at %v was not ignored: status %d\nwant %s\ngot  %s", other, code, self, raw)
		}
	}
}

// FuzzPlanHeader holds the backend to three properties on any X-S3-Plan
// value: it never panics and answers 200 or 400; every header it
// accepts at its geometry decodes to a well-formed plan that re-encodes
// to the same bytes; and every well-formed plan at its geometry is
// accepted.
func FuzzPlanHeader(f *testing.F) {
	s, body := planServer(f)
	pl, err := NewPlanner(s.geo)
	if err != nil {
		f.Fatal(err)
	}
	hdr, _, _ := pl.Plan([]byte(body))
	for _, seed := range []string{hdr, s.geo.String() + ".", "8.8.10." + hdr[len("8.8.9."):], hdr[:len(hdr)-3], "8.8.9.AAAA", "1.1.1.x"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, h string) {
		code, raw := statWith(s, body, h)
		if code != http.StatusOK && code != http.StatusBadRequest {
			t.Fatalf("header %q: status %d (%s)", h, code, raw)
		}
		ivs, used, err := decodePlanHeader(h, s.geo)
		if err != nil && code != http.StatusBadRequest {
			t.Fatalf("header %q fails to decode (%v) but was answered %d", h, err, code)
		}
		if err != nil || !used {
			return
		}
		if wf := wellFormed(s.geo, ivs); wf != nil {
			if code != http.StatusBadRequest {
				t.Fatalf("header %q accepted with a malformed plan: %v", h, wf)
			}
			return
		}
		if code != http.StatusOK {
			t.Fatalf("well-formed header %q refused: %s", h, raw)
		}
		if again, ok := encodePlanHeader(s.geo, ivs); !ok || again != h {
			t.Fatalf("accepted header %q re-encodes to %q", h, again)
		}
	})
}
