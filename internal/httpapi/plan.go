package httpapi

// The plan-once protocol. A statistical plan reads only the curve
// geometry, the depth, α, σ and the query (the paper's filtering step,
// T_f), so a router in front of several key-range groups computes it
// once and sends it with the query; each backend only refines (T_r).
//
//   - Every search reply carries CurveHeader, "<dims>.<order>.<depth>":
//     the geometry this server plans at. A router learns it from
//     successful replies.
//   - A request may carry PlanHeader, "<dims>.<order>.<depth>.<base64>":
//     the plan's curve intervals, each as its Start and End key in
//     unpadded URL-safe base64. A key is big-endian in ⌈(K·D+1)/8⌉
//     bytes (an End may be 2^(K·D)) less its last ⌊(K·D−p)/8⌋ bytes,
//     which are zero on every depth-p block boundary: 4 bytes at
//     D = 20, K = 8, p = 20 instead of 21.
//   - A backend validates the request as always, then uses the plan only
//     when its geometry equals the server's. The intervals must be
//     non-empty, sorted, disjoint, on depth-p block boundaries, inside
//     the curve and at most MaxPlanIntervals: a malformed header is a
//     400. A header at another geometry is ignored and the backend plans
//     itself, so a mixed fleet still answers.

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"s3cbcd/internal/bitkey"
	"s3cbcd/internal/core"
	"s3cbcd/internal/hilbert"
	"s3cbcd/internal/store"
)

// CurveHeader names the geometry a server plans at on every search
// reply; PlanHeader carries a plan computed elsewhere on a statistical
// search request.
const (
	CurveHeader = "X-S3-Curve"
	PlanHeader  = "X-S3-Plan"
)

// MaxPlanIntervals caps the intervals one PlanHeader may carry. Over
// fleet_single's 8 192-query client cycle (seed 1) a statistical plan
// holds 66 intervals at the median, 433 at the 95th percentile and
// 9 218 at most, so the cap is 19× the 95th percentile and one query in
// that cycle exceeds it. A full header is at most 8 192 × 64 bytes, or
// 699 KB of base64 on the widest curve (K·D = 255, p = K·D), inside
// net/http's 1 MB default header limit; at D = 20, K = 8, p = 20 it is
// 87 KB. A router forwards a larger plan's request unplanned.
const MaxPlanIntervals = 8192

// planEncoding is strict so that one plan has exactly one encoding.
var planEncoding = base64.RawURLEncoding.Strict()

// Geometry is what a statistical plan depends on besides the query: the
// curve's dimensions and order, and the partition depth.
type Geometry struct{ Dims, Order, Depth int }

// String is the wire form, "<dims>.<order>.<depth>".
func (g Geometry) String() string {
	return strconv.Itoa(g.Dims) + "." + strconv.Itoa(g.Order) + "." + strconv.Itoa(g.Depth)
}

// ParseGeometry parses String's form: three positive decimal numbers of
// at most four digits, without sign or leading zero, so a geometry has
// one spelling.
func ParseGeometry(s string) (Geometry, bool) {
	var v [3]int
	for i := range v {
		part := s
		if i < 2 {
			dot := strings.IndexByte(s, '.')
			if dot < 0 {
				return Geometry{}, false
			}
			part, s = s[:dot], s[dot+1:]
		}
		if len(part) == 0 || len(part) > 4 || part[0] == '0' {
			return Geometry{}, false
		}
		for _, c := range []byte(part) {
			if c < '0' || c > '9' {
				return Geometry{}, false
			}
			v[i] = 10*v[i] + int(c-'0')
		}
	}
	return Geometry{v[0], v[1], v[2]}, true
}

// keyBytes returns the bytes of one key on the wire, w, and the bytes
// the wire form drops, zero: a key takes ⌈(K·D+1)/8⌉ bytes big-endian
// (an End may be 2^(K·D)), and its last ⌊(K·D−p)/8⌋ are zero on every
// depth-p block boundary.
func (g Geometry) keyBytes() (w, zero int) {
	bits := g.Dims * g.Order
	zero = (bits - g.Depth) / 8
	return (bits+8)/8 - zero, zero
}

// encodePlanHeader returns the PlanHeader value of ivs, which must lie
// on depth-p block boundaries at g; false when there are more than
// MaxPlanIntervals.
func encodePlanHeader(g Geometry, ivs []hilbert.Interval) (string, bool) {
	if len(ivs) > MaxPlanIntervals {
		return "", false
	}
	return planHeader(g, ivs), true
}

// planHeader is encodePlanHeader without the cap.
func planHeader(g Geometry, ivs []hilbert.Interval) string {
	w, zero := g.keyBytes()
	raw := make([]byte, 2*w*len(ivs))
	var full [bitkey.MaxBits / 8]byte
	for i, iv := range ivs {
		for j, k := range [2]bitkey.Key{iv.Start, iv.End} {
			k.PutBytes(full[:], len(full))
			copy(raw[(2*i+j)*w:], full[len(full)-zero-w:len(full)-zero])
		}
	}
	prefix := g.String() + "."
	b := make([]byte, len(prefix)+planEncoding.EncodedLen(len(raw)))
	planEncoding.Encode(b[copy(b, prefix):], raw)
	return string(b)
}

// decodePlanHeader reads a PlanHeader value for a server at g. used is
// false for no header and for a header at another geometry. err is set
// for a malformed one: no geometry prefix, bad base64, bytes that are
// not whole intervals, or more than MaxPlanIntervals. Order, alignment
// and extent are the searcher's to check (core's RefineStat).
func decodePlanHeader(h string, g Geometry) (ivs []hilbert.Interval, used bool, err error) {
	if h == "" {
		return nil, false, nil
	}
	// The base64 alphabet has no '.', so the geometry ends at the last.
	cut := strings.LastIndexByte(h, '.')
	if cut < 0 {
		return nil, false, errors.New("no dims.order.depth. prefix")
	}
	geo, ok := ParseGeometry(h[:cut])
	if !ok {
		return nil, false, fmt.Errorf("geometry %q is not dims.order.depth", h[:cut])
	}
	if geo != g {
		return nil, false, nil
	}
	enc := h[cut+1:]
	if strings.ContainsAny(enc, "\r\n") {
		// The decoder skips them, which would give one plan two spellings.
		return nil, false, errors.New("line break in the base64")
	}
	w, zero := g.keyBytes()
	if planEncoding.DecodedLen(len(enc)) > 2*w*MaxPlanIntervals {
		return nil, false, fmt.Errorf("more than %d intervals", MaxPlanIntervals)
	}
	raw, err := planEncoding.DecodeString(enc)
	if err != nil {
		return nil, false, err
	}
	if len(raw)%(2*w) != 0 {
		return nil, false, fmt.Errorf("%d bytes are not whole %d-byte intervals", len(raw), 2*w)
	}
	ivs = make([]hilbert.Interval, len(raw)/(2*w))
	var full [bitkey.MaxBits / 8]byte // its last zero bytes stay zero
	key := func(at int) bitkey.Key {
		copy(full[len(full)-zero-w:], raw[at:at+w])
		return bitkey.FromBytes(full[:], len(full))
	}
	for i := range ivs {
		ivs[i] = hilbert.Interval{Start: key(2 * w * i), End: key(2*w*i + w)}
	}
	return ivs, true, nil
}

// Planner plans statistical search requests exactly as a backend at its
// geometry does, so a router can plan each request once for its fleet.
// It is safe for concurrent use.
type Planner struct {
	geo Geometry
	ix  *core.Index
}

// NewPlanner returns a planner at g: an index over no records, since a
// plan never reads one.
func NewPlanner(g Geometry) (*Planner, error) {
	if g.Depth < 1 {
		return nil, fmt.Errorf("httpapi: depth %d must be >= 1", g.Depth)
	}
	curve, err := hilbert.New(g.Dims, g.Order)
	if err != nil {
		return nil, err
	}
	db, err := store.Build(curve, nil)
	if err != nil {
		return nil, err
	}
	ix, err := core.NewIndex(db, g.Depth)
	if err != nil {
		return nil, err
	}
	return &Planner{geo: g, ix: ix}, nil
}

// Geometry returns the geometry the planner plans at.
func (p *Planner) Geometry() Geometry { return p.geo }

// Plan plans a /search/statistical request body and returns its
// PlanHeader value with the plan. ok is false when the body fails the
// checks the backend's handler makes (the backend then answers the
// client with its own 400) or the plan has more than MaxPlanIntervals
// intervals.
func (p *Planner) Plan(body []byte) (hdr string, plan core.Plan, ok bool) {
	var req searchRequest
	if json.Unmarshal(body, &req) != nil {
		return "", core.Plan{}, false
	}
	fp, err := fingerprint(req.Fingerprint, p.geo.Dims)
	if err != nil {
		return "", core.Plan{}, false
	}
	sq, err := statQuery(&req, p.geo.Dims)
	if err != nil {
		return "", core.Plan{}, false
	}
	if plan, err = p.ix.PlanStat(fp, sq); err != nil {
		return "", core.Plan{}, false
	}
	if hdr, ok = encodePlanHeader(p.geo, plan.Intervals); !ok {
		return "", core.Plan{}, false
	}
	return hdr, plan, true
}
