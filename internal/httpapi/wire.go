package httpapi

// Search responses are written by hand: each handler appends its
// members into a pooled buffer in the order encoding/json gives sorted
// map keys, and sends the result in one Write with Content-Length set.
// The bytes are exactly what json.NewEncoder(w).Encode produced for the
// map-based responses this replaced (testdata/golden.txt pins them):
// a match is its five members in declaration order with "dist" omitted
// when not positive, floats follow encoding/json's format choice, and
// the body ends in a newline. Health, stats and write endpoints keep
// encoding/json.

import (
	"encoding/json"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"

	"s3cbcd/internal/core"
	"s3cbcd/internal/obs"
)

// MaxRequestBody caps a search request body (8 MiB — a large batch of
// fingerprints is well under 1 MiB). s3router enforces the same cap
// with the same 413 body.
const MaxRequestBody = 8 << 20

// maxPooledBody bounds the response buffers kept for reuse, so one huge
// answer does not stay resident after it is sent.
const maxPooledBody = 1 << 20

// Body is a JSON response object under construction in a pooled
// buffer: B holds everything written so far, opening brace included.
// s3router builds its merged replies the same way.
type Body struct{ B []byte }

var bodyPool = sync.Pool{New: func() any { return &Body{B: make([]byte, 0, 4096)} }}

// NewBody takes a pooled buffer with room for size bytes and opens the
// response object in it.
func NewBody(size int) *Body {
	b := bodyPool.Get().(*Body)
	b.B = append(slices.Grow(b.B[:0], size), '{')
	return b
}

// Send closes the object and writes it in one Write with Content-Length
// set, then returns the buffer to the pool; b must not be used after.
func (b *Body) Send(w http.ResponseWriter) {
	b.B = append(b.B, "}\n"...)
	h := w.Header()
	h.Set("Content-Type", jsonContentType)
	h.Set("Content-Length", strconv.Itoa(len(b.B)))
	w.Write(b.B)
	if cap(b.B) <= maxPooledBody {
		bodyPool.Put(b)
	}
}

// appendMatches appends ms as a JSON array of match objects.
func appendMatches(b []byte, ms []core.Match) []byte {
	b = append(b, '[')
	for i, m := range ms {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"id":`...)
		b = strconv.AppendUint(b, uint64(m.ID), 10)
		b = append(b, `,"tc":`...)
		b = strconv.AppendUint(b, uint64(m.TC), 10)
		b = append(b, `,"x":`...)
		b = strconv.AppendUint(b, uint64(m.X), 10)
		b = append(b, `,"y":`...)
		b = strconv.AppendUint(b, uint64(m.Y), 10)
		// Statistical matches carry Dist -1; like a zero distance it is
		// left out.
		if m.Dist > 0 {
			b = append(b, `,"dist":`...)
			b = appendFloat(b, m.Dist)
		}
		b = append(b, '}')
	}
	return append(b, ']')
}

// AppendPlan appends a statistical plan's diagnostics object, the
// "plan" member of a statistical reply; s3router writes the plan it
// computed for its fleet with it.
func AppendPlan(b []byte, p core.Plan) []byte {
	b = append(b, `{"blocks":`...)
	b = strconv.AppendInt(b, int64(p.Blocks), 10)
	b = append(b, `,"depth":`...)
	b = strconv.AppendInt(b, int64(p.Depth), 10)
	b = append(b, `,"descentNodes":`...)
	b = strconv.AppendInt(b, int64(p.DescentNodes), 10)
	b = append(b, `,"filterIters":`...)
	b = strconv.AppendInt(b, int64(p.FilterIters), 10)
	b = append(b, `,"mass":`...)
	b = appendFloat(b, p.Mass)
	b = append(b, `,"threshold":`...)
	b = appendFloat(b, p.Threshold)
	return append(b, '}')
}

// appendFloat appends a finite f as encoding/json writes a float64: the
// shortest digits that round-trip, exponent form only below 1e-6 or
// from 1e21 up, and a two-digit negative exponent cut to one digit
// ("1e-07" becomes "1e-7").
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// sendSearch sends a search response whose members are in out. A
// traced request's report is finished here and appended last, where
// "trace" sorts.
func (s *Server) sendSearch(w http.ResponseWriter, tr *obs.Trace, out *Body) {
	if tr != nil {
		if raw, err := json.Marshal(s.finishTrace(tr, nil)); err == nil {
			out.B = append(append(out.B, `,"trace":`...), raw...)
		}
	}
	out.Send(w)
}
