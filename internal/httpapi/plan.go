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
//     per block run, the uvarint gap from the previous run's end and the
//     uvarint length, in unpadded URL-safe base64, so runs are sorted,
//     disjoint and aligned by construction. A zero gap after the first
//     run, a zero length and a non-minimal uvarint would give a plan two
//     spellings, and are refused.
//   - A backend validates the request as always, then uses the plan only
//     when its geometry equals the server's; a malformed header is a
//     400. A header at another geometry is ignored and the backend plans
//     itself, so a mixed fleet still answers. So is the header plans
//     were first sent in, X-S3-Plan, which carried key intervals: a
//     mixed-version fleet answers with no version negotiation.

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"s3cbcd/internal/core"
	"s3cbcd/internal/hilbert"
)

// CurveHeader names the geometry a server plans at on every search
// reply; PlanHeader carries a plan computed elsewhere on a statistical
// search request.
const (
	CurveHeader = "X-S3-Curve"
	PlanHeader  = "X-S3-Plan-Runs"
)

// MaxPlanIntervals caps the runs one PlanHeader may carry. Over
// fleet_single's 8 192-query client cycle (seed 1) a statistical plan
// holds 66 runs at the median, 433 at the 95th percentile and 9 218 at
// most, so the cap is 19× the 95th percentile and one query in that
// cycle exceeds it. A run is two uvarints of at most 9 bytes each
// (p <= hilbert.MaxDepth), so a full header is at most 147 456 raw
// bytes, or 197 KB of base64, inside net/http's 1 MB default header
// limit. A router forwards a larger plan's request unplanned.
const MaxPlanIntervals = 8192

// maxRunBytes bounds one encoded run: two uvarints of values below
// 2^hilbert.MaxDepth.
const maxRunBytes = 2 * ((hilbert.MaxDepth + 6) / 7)

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

// Planner returns a planner at g, for a router to plan each request
// once for its fleet.
func (g Geometry) Planner() (*core.Planner, error) {
	curve, err := hilbert.New(g.Dims, g.Order)
	if err != nil {
		return nil, err
	}
	return core.NewPlanner(curve, g.Depth)
}

// GeometryOf returns the geometry pl plans at.
func GeometryOf(pl *core.Planner) Geometry {
	return Geometry{pl.Curve().Dims(), pl.Curve().Order(), pl.Depth()}
}

// encodePlanHeader returns the PlanHeader value of runs, a plan at g;
// false when there are more than MaxPlanIntervals.
func encodePlanHeader(g Geometry, runs []hilbert.Run) (string, bool) {
	if len(runs) > MaxPlanIntervals {
		return "", false
	}
	return planHeader(g, runs), true
}

// planHeader is encodePlanHeader without the cap.
func planHeader(g Geometry, runs []hilbert.Run) string {
	var stack [512]byte // holds a plan of about 170 runs without an allocation
	raw := stack[:0]
	prev := uint64(0)
	for _, r := range runs {
		raw = binary.AppendUvarint(binary.AppendUvarint(raw, r.Lo-prev), r.Hi-r.Lo)
		prev = r.Hi
	}
	prefix := g.String() + "."
	b := make([]byte, len(prefix)+planEncoding.EncodedLen(len(raw)))
	planEncoding.Encode(b[copy(b, prefix):], raw)
	return string(b)
}

// decodePlanHeader reads a PlanHeader value for a server at g. used is
// false for no header and for a header at another geometry; err is set
// for a malformed one, or one that ends past the curve's 2^p blocks or
// holds more than MaxPlanIntervals runs.
func decodePlanHeader(h string, g Geometry) (runs []hilbert.Run, used bool, err error) {
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
	if strings.IndexByte(enc, '\r') >= 0 || strings.IndexByte(enc, '\n') >= 0 {
		// The decoder skips them, which would give one plan two spellings.
		return nil, false, errors.New("line break in the base64")
	}
	if planEncoding.DecodedLen(len(enc)) > maxRunBytes*MaxPlanIntervals {
		return nil, false, fmt.Errorf("more than %d runs", MaxPlanIntervals)
	}
	raw, err := planEncoding.DecodeString(enc)
	if err != nil {
		return nil, false, err
	}
	// Every uvarint ends in its one byte below 0x80.
	n := 0
	for _, c := range raw {
		if c < 0x80 {
			n++
		}
	}
	if n > 2*MaxPlanIntervals {
		return nil, false, fmt.Errorf("more than %d runs", MaxPlanIntervals)
	}
	runs = make([]hilbert.Run, 0, n/2)
	end := uint64(1) << uint(g.Depth) // g.Depth is the server's own, checked at start
	prev := uint64(0)
	for len(raw) > 0 {
		var v [2]uint64 // the run's gap and length
		for j := range v {
			x, k := binary.Uvarint(raw)
			switch {
			case k == 0:
				return nil, false, errors.New("truncated uvarint")
			case k < 0:
				return nil, false, errors.New("uvarint overflows 64 bits")
			case k > 1 && raw[k-1] == 0:
				return nil, false, errors.New("uvarint not minimally encoded")
			}
			v[j], raw = x, raw[k:]
		}
		gap, length, i := v[0], v[1], len(runs)
		switch {
		case length == 0:
			return nil, false, fmt.Errorf("run %d is empty", i)
		case gap == 0 && i > 0:
			return nil, false, fmt.Errorf("run %d abuts run %d", i, i-1)
		case gap > end-prev || length > end-prev-gap:
			return nil, false, fmt.Errorf("run %d ends past the curve's %d blocks", i, end)
		}
		runs = append(runs, hilbert.Run{Lo: prev + gap, Hi: prev + gap + length})
		prev += gap + length
	}
	return runs, true, nil
}

// PlanRequest plans a /search/statistical request body with pl exactly
// as a backend at its geometry does, and returns its PlanHeader value
// with the plan. ok is false when the body fails the checks the
// backend's handler makes (the backend then answers the client with its
// own 400) or the plan has more than MaxPlanIntervals runs.
func PlanRequest(pl *core.Planner, body []byte) (hdr string, plan core.Plan, ok bool) {
	var req searchRequest
	if json.Unmarshal(body, &req) != nil {
		return "", core.Plan{}, false
	}
	g := GeometryOf(pl)
	fp, err := fingerprint(req.Fingerprint, g.Dims)
	if err != nil {
		return "", core.Plan{}, false
	}
	sq, err := statQuery(&req, g.Dims)
	if err != nil {
		return "", core.Plan{}, false
	}
	if plan, err = pl.PlanStat(fp, sq); err != nil {
		return "", core.Plan{}, false
	}
	if hdr, ok = encodePlanHeader(g, plan.Intervals); !ok {
		return "", core.Plan{}, false
	}
	return hdr, plan, true
}
