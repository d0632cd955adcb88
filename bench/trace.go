package main

// Spans recorded from the harness's own files, around the calls into
// each layer: the client round-trip, every http.Handler of the topology
// (router, each httpapi server) and the store filesystem seam. The
// traced pass keeps one request in flight, so spans share the script
// index as request id and a span's parent is found by time containment.
// Spans live in memory and are written out when the benchmark ends.

import (
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one interval of one layer's work on one request.
type span struct {
	Req    int           `json:"req"` // script index
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"` // since the recorder started
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"` // index into the span list, -1 for a root
	Bytes  int           `json:"bytes,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder collects spans. cur is the script index in flight; while it
// is negative (metrics scrapes, set-up, background work between
// requests) nothing is recorded.
type recorder struct {
	t0  time.Time
	cur atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	r := &recorder{t0: time.Now()}
	r.cur.Store(-1)
	return r
}

func (r *recorder) add(name string, start time.Time, d time.Duration, bytes int) {
	req := r.cur.Load()
	if req < 0 {
		return
	}
	s := span{Req: int(req), Name: name, Start: start.Sub(r.t0), Parent: -1, Bytes: bytes}
	s.End = s.Start + d
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// wrap records one span per request served by h.
func (r *recorder) wrap(layer string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, req)
		r.add(layer, t0, time.Since(t0), 0)
	})
}

// observeFS is the hooks.FS observer: store.read / store.write /
// store.sync spans.
func (r *recorder) observeFS(op string, start time.Time, d time.Duration, n int) {
	r.add("store."+op, start, d, n)
}

func (r *recorder) hooks() hooks { return hooks{Wrap: r.wrap, FS: r.observeFS} }

// finish assigns parents and returns the spans ordered by request and
// start time.
func (r *recorder) finish() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	sort.SliceStable(r.spans, func(a, b int) bool {
		sa, sb := r.spans[a], r.spans[b]
		if sa.Req != sb.Req {
			return sa.Req < sb.Req
		}
		if sa.Start != sb.Start {
			return sa.Start < sb.Start
		}
		return sa.End > sb.End
	})
	assignParents(r.spans)
	return r.spans
}

// rank orders the layers from the outside in; a span's parent is always
// of an outer layer, so two replicas answering in parallel never adopt
// each other.
func rank(name string) int {
	switch name {
	case "client":
		return 0
	case "router":
		return 1
	case "httpapi":
		return 2
	}
	return 3 // store.*
}

// assignParents sets each span's parent to the shortest span of an
// outer layer and the same request that contains it in time (-1 when
// none does). spans must be ordered by request.
func assignParents(spans []span) {
	for lo := 0; lo < len(spans); {
		hi := lo
		for hi < len(spans) && spans[hi].Req == spans[lo].Req {
			hi++
		}
		for i := lo; i < hi; i++ {
			s := &spans[i]
			s.Parent = -1
			for j := lo; j < hi; j++ {
				p := spans[j]
				if rank(p.Name) >= rank(s.Name) || p.Start > s.Start || s.End > p.End {
					continue
				}
				if s.Parent < 0 || p.dur() < spans[s.Parent].dur() {
					s.Parent = j
				}
			}
		}
		lo = hi
	}
}

type interval struct{ lo, hi time.Duration }

// unionLen is the total length covered by the intervals, overlaps
// counted once.
func unionLen(ivs []interval) time.Duration {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total, end time.Duration
	first := true
	for _, iv := range ivs {
		if iv.hi <= iv.lo {
			continue
		}
		if first || iv.lo > end {
			total += iv.hi - iv.lo
			end, first = iv.hi, false
		} else if iv.hi > end {
			total += iv.hi - end
			end = iv.hi
		}
	}
	return total
}

// selfTimes returns, for every span, its duration minus the part of
// that interval its child spans cover (children clipped to the parent,
// overlapping children counted once).
func selfTimes(spans []span) []time.Duration {
	children := make([][]interval, len(spans))
	for _, s := range spans {
		if s.Parent < 0 {
			continue
		}
		p := spans[s.Parent]
		lo, hi := s.Start, s.End
		if lo < p.Start {
			lo = p.Start
		}
		if hi > p.End {
			hi = p.End
		}
		children[s.Parent] = append(children[s.Parent], interval{lo, hi})
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - unionLen(children[i])
	}
	return self
}

// writeSpans writes the span file (one JSON document).
func writeSpans(path string, byWorkload map[string][]span) error {
	b, err := json.Marshal(byWorkload)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
