package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Trace is the per-query execution record threaded through a search via
// its context. Since PR 10 it is a span tree rather than a flat stage
// list: every span carries a parent link, a start offset, a duration and
// a small set of string annotations, so a distributed query renders as
// one tree — the router's admission and per-backend attempts at the top,
// each backend's plan → refine stage split grafted underneath (see
// AttachRemote). The work counters the paper's evaluation is phrased in
// (partition-tree nodes descended, p-blocks selected, candidate records
// refined, segments visited) aggregate fleet-wide across grafts.
//
// A nil *Trace is the disabled state: every method no-ops, FromContext
// returns nil for untraced contexts, and the instrumentation points are
// written so the disabled path performs no allocation — tracing off
// costs one context lookup and a few predictable branches. Span methods
// take fixed arguments (no variadics) so call sites with a nil trace
// build nothing.
//
// Span records come from the orchestrating goroutine of a query or its
// attempt goroutines (the span list is mutex-guarded); the work counters
// are atomic so the concurrent queries of a batch can add to a shared
// trace.
type Trace struct {
	t0      time.Time
	traceID uint64
	parent  uint64 // remote parent span id; 0 for a root trace
	depth   uint8  // propagation hops from the root trace

	mu      sync.Mutex
	name    string
	errMsg  string
	spans   []span
	rootAnn []annotation
	remote  []remoteGraft
	dropped int64

	descentNodes atomic.Int64
	blocks       atomic.Int64
	candidates   atomic.Int64
	segments     atomic.Int64
}

// SpanID names one span within its trace. IDs are local to the process
// (1-based creation order); 0 is the invalid/none id, which every span
// method treats as "attach to the trace root" (Annotate) or no-op
// (EndSpan). Cross-process identity is never needed: remote subtrees are
// grafted by response position, not by id.
type SpanID uint64

type annotation struct{ key, val string }

type span struct {
	name   string
	parent SpanID
	start  time.Duration // offset from trace start
	dur    time.Duration // < 0 while the span is open
	stage  bool          // renders in the legacy flat Stages list
	ann    []annotation
}

// remoteGraft is a backend's in-band trace report waiting to be rendered
// as a subtree under the local attempt span that fetched it.
type remoteGraft struct {
	under SpanID
	rep   TraceReport
}

// maxTraceSpans bounds one trace's span list: a retry storm or a
// pathological fan-out must not let a single traced query grow without
// bound. Past the cap spans are counted (droppedSpans) and discarded.
const maxTraceSpans = 512

// Package-wide tracing health counters, exported as s3_trace_* families
// by TraceStore.RegisterMetrics. Globals rather than per-trace fields so
// the untraced hot path never touches them and a registry can render
// them without holding traces alive.
var (
	spansStarted     atomic.Int64
	spansDropped     atomic.Int64
	assemblyFailures atomic.Int64
)

// idState drives trace-id generation: a splitmix64 counter seeded once
// per process. Ids only need to be unique-enough to correlate log lines
// and debug-store entries; grafting never keys on them.
var idState atomic.Uint64

func init() {
	idState.Store(uint64(time.Now().UnixNano()) ^ uint64(os.Getpid())<<32)
}

func randID() uint64 {
	for {
		if id := splitmix64(idState.Add(splitmix64Gamma)); id != 0 {
			return id
		}
	}
}

// NewTrace returns an armed root trace starting now, with a fresh trace
// id.
func NewTrace() *Trace { return &Trace{t0: time.Now(), traceID: randID()} }

// NewTraceFrom returns an armed trace continuing the remote trace
// described by sc (as decoded from an X-S3-Trace header): it shares the
// caller's trace id, remembers the remote parent span and sits one
// propagation hop deeper.
func NewTraceFrom(sc SpanContext) *Trace {
	if sc.TraceID == 0 {
		return NewTrace()
	}
	return &Trace{t0: time.Now(), traceID: sc.TraceID, parent: sc.SpanID, depth: sc.Depth}
}

type traceKey struct{}

// WithTrace arms ctx with tr: instrumentation points downstream record
// into it.
func WithTrace(ctx context.Context, tr *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, tr)
}

// FromContext returns the context's trace, or nil when the query is not
// traced. The lookup allocates nothing.
func FromContext(ctx context.Context) *Trace {
	tr, _ := ctx.Value(traceKey{}).(*Trace)
	return tr
}

// TraceID returns the trace's 64-bit id (0 for nil).
func (t *Trace) TraceID() uint64 {
	if t == nil {
		return 0
	}
	return t.traceID
}

// SetName names the trace root span (the service + route, by
// convention). Last call wins.
func (t *Trace) SetName(name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.name = name
	t.mu.Unlock()
}

// SetError marks the whole trace failed. The first recorded error is
// kept — it is the one that determined the response.
func (t *Trace) SetError(msg string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.errMsg == "" {
		t.errMsg = msg
	}
	t.mu.Unlock()
}

// Propagate returns the SpanContext to send downstream for work done
// under span, and whether to send it at all: propagation stops (returns
// false) when the trace is nil or another hop would exceed
// MaxTraceDepth — the depth-bomb guard for routers routing to routers.
func (t *Trace) Propagate(span SpanID) (SpanContext, bool) {
	if t == nil || t.depth >= MaxTraceDepth {
		return SpanContext{}, false
	}
	return SpanContext{TraceID: t.traceID, SpanID: uint64(span), Sampled: true, Depth: t.depth + 1}, true
}

// StartSpan opens a span under parent (0 = the trace root) and returns
// its id. A full trace drops the span and returns 0, which EndSpan and
// Annotate ignore.
func (t *Trace) StartSpan(name string, parent SpanID) SpanID {
	if t == nil {
		return 0
	}
	return t.addSpan(name, parent, time.Since(t.t0), -1, false)
}

// EndSpan closes an open span. Closing id 0 (the root, or a dropped
// span) is a no-op: the root closes at Report time.
func (t *Trace) EndSpan(id SpanID) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	if i := int(id) - 1; i < len(t.spans) && t.spans[i].dur < 0 {
		t.spans[i].dur = now - t.spans[i].start
	}
	t.mu.Unlock()
}

// EndAbandoned closes span id with an outcome=abandoned annotation —
// but only if it is still open. A span whose owner already recorded its
// own ending (and a more specific outcome) keeps it; the caller uses
// this to sweep up in-flight work it is walking away from without
// racing the workers to the verdict.
func (t *Trace) EndAbandoned(id SpanID) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	if i := int(id) - 1; i < len(t.spans) && t.spans[i].dur < 0 {
		t.spans[i].ann = append(t.spans[i].ann, annotation{key: "outcome", val: "abandoned"})
		t.spans[i].dur = now - t.spans[i].start
	}
	t.mu.Unlock()
}

// SpanSince records a completed span under parent that began at start
// and ends now, returning its id.
func (t *Trace) SpanSince(name string, parent SpanID, start time.Time) SpanID {
	if t == nil {
		return 0
	}
	return t.addSpan(name, parent, start.Sub(t.t0), time.Since(start), false)
}

// StageSince appends a pipeline stage that began at start and ends now:
// a root-level span that additionally renders in the legacy flat Stages
// list. Offsets are relative to the trace start, so stages from nested
// calls line up on one timeline. The returned id lets call sites
// annotate the stage (guard the annotation build with a nil check).
func (t *Trace) StageSince(name string, start time.Time) SpanID {
	if t == nil {
		return 0
	}
	return t.addSpan(name, 0, start.Sub(t.t0), time.Since(start), true)
}

func (t *Trace) addSpan(name string, parent SpanID, start, dur time.Duration, stage bool) SpanID {
	spansStarted.Add(1)
	t.mu.Lock()
	if len(t.spans) >= maxTraceSpans {
		t.dropped++
		t.mu.Unlock()
		spansDropped.Add(1)
		return 0
	}
	t.spans = append(t.spans, span{name: name, parent: parent, start: start, dur: dur, stage: stage})
	id := SpanID(len(t.spans))
	t.mu.Unlock()
	return id
}

// Annotate attaches a key/value pair to a span (id 0 annotates the
// trace root). Call sites on hot paths must guard the value build with
// a nil check — this method cannot un-allocate an already-built string.
func (t *Trace) Annotate(id SpanID, key, val string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if id == 0 {
		t.rootAnn = append(t.rootAnn, annotation{key: key, val: val})
	} else if i := int(id) - 1; i < len(t.spans) {
		t.spans[i].ann = append(t.spans[i].ann, annotation{key: key, val: val})
	}
	t.mu.Unlock()
}

// AttachRemote grafts a downstream process's trace report (the raw
// "trace" JSON from a sampled backend response) under the local span
// that carried the request. The remote tree renders as that span's
// child, re-based onto the local timeline, and the remote work counters
// roll up into this trace so root totals are fleet-wide. Malformed
// reports count as assembly failures and graft an error placeholder —
// an attempt whose trace was torn should be visible, not silent.
func (t *Trace) AttachRemote(under SpanID, raw []byte) error {
	if t == nil {
		return nil
	}
	var rep TraceReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		assemblyFailures.Add(1)
		t.mu.Lock()
		t.remote = append(t.remote, remoteGraft{under: under, rep: TraceReport{Name: "remote", Error: fmt.Sprintf("trace assembly: %v", err)}})
		t.mu.Unlock()
		return err
	}
	t.descentNodes.Add(rep.DescentNodes)
	t.blocks.Add(rep.Blocks)
	t.candidates.Add(rep.Candidates)
	t.segments.Add(rep.Segments)
	t.mu.Lock()
	t.remote = append(t.remote, remoteGraft{under: under, rep: rep})
	t.mu.Unlock()
	return nil
}

// AddDescentNodes accumulates partition-tree nodes visited by planning.
func (t *Trace) AddDescentNodes(n int64) {
	if t != nil {
		t.descentNodes.Add(n)
	}
}

// AddBlocks accumulates p-blocks selected by plans.
func (t *Trace) AddBlocks(n int64) {
	if t != nil {
		t.blocks.Add(n)
	}
}

// AddCandidates accumulates candidate records scanned by refinement.
func (t *Trace) AddCandidates(n int64) {
	if t != nil {
		t.candidates.Add(n)
	}
}

// AddSegments accumulates segments visited by refinement.
func (t *Trace) AddSegments(n int64) {
	if t != nil {
		t.segments.Add(n)
	}
}

// StageReport is one stage of a trace report. Times are microseconds
// from the trace start (Start) and stage duration (Micros).
type StageReport struct {
	Name        string `json:"name"`
	StartMicros int64  `json:"startMicros"`
	Micros      int64  `json:"micros"`
}

// SpanReport is one span of an assembled trace tree. Children are
// nested, so parentage is the tree shape; ids do not appear. Remote
// subtrees carry their own Service name.
type SpanReport struct {
	Name        string            `json:"name"`
	Service     string            `json:"service,omitempty"`
	StartMicros int64             `json:"startMicros"`
	Micros      int64             `json:"micros"`
	Annotations map[string]string `json:"annotations,omitempty"`
	Error       string            `json:"error,omitempty"`
	Children    []SpanReport      `json:"children,omitempty"`
}

// TraceReport is the JSON-marshalable snapshot of a trace, attached to
// HTTP responses for traced queries. Spans is the assembled tree (root
// children); Stages remains the legacy flat pipeline-stage list. The
// work counters are fleet-wide totals once remote reports are attached.
type TraceReport struct {
	TraceID      string            `json:"traceId,omitempty"`
	Name         string            `json:"name,omitempty"`
	TotalMicros  int64             `json:"totalMicros"`
	Stages       []StageReport     `json:"stages"`
	Spans        []SpanReport      `json:"spans,omitempty"`
	Annotations  map[string]string `json:"annotations,omitempty"`
	Error        string            `json:"error,omitempty"`
	DroppedSpans int64             `json:"droppedSpans,omitempty"`
	DescentNodes int64             `json:"descentNodes"`
	Blocks       int64             `json:"blocks"`
	Candidates   int64             `json:"candidates"`
	Segments     int64             `json:"segments,omitempty"`
}

// Report snapshots the trace: total time runs from NewTrace to this
// call, open spans are reported as still running up to now, and remote
// grafts render as children of the spans that fetched them.
func (t *Trace) Report() TraceReport {
	if t == nil {
		return TraceReport{}
	}
	now := time.Since(t.t0)
	r := TraceReport{
		TotalMicros:  now.Microseconds(),
		DescentNodes: t.descentNodes.Load(),
		Blocks:       t.blocks.Load(),
		Candidates:   t.candidates.Load(),
		Segments:     t.segments.Load(),
	}
	if t.traceID != 0 {
		r.TraceID = fmt.Sprintf("%016x", t.traceID)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	r.Name = t.name
	r.Error = t.errMsg
	r.DroppedSpans = t.dropped
	r.Annotations = annotationMap(t.rootAnn)
	for _, s := range t.spans {
		if !s.stage {
			continue
		}
		r.Stages = append(r.Stages, StageReport{
			Name:        s.name,
			StartMicros: s.start.Microseconds(),
			Micros:      s.dur.Microseconds(),
		})
	}
	// Children always follow their parents in creation order, so one
	// forward pass builds the tree bottom-up into per-span node slots,
	// then a second pass hangs each node on its parent. Nodes are
	// attached in reverse so a parent's Children slice is complete
	// before the parent itself is attached to its own parent.
	nodes := make([]SpanReport, len(t.spans))
	for i, s := range t.spans {
		dur := s.dur
		if dur < 0 {
			dur = now - s.start
		}
		nodes[i] = SpanReport{
			Name:        s.name,
			StartMicros: s.start.Microseconds(),
			Micros:      dur.Microseconds(),
			Annotations: annotationMap(s.ann),
		}
	}
	for _, g := range t.remote {
		sub := remoteSubtree(g.rep)
		if i := int(g.under) - 1; i >= 0 && i < len(nodes) {
			sub = rebase(sub, nodes[i].StartMicros)
			nodes[i].Children = append(nodes[i].Children, sub)
		} else {
			sub = rebase(sub, 0)
			r.Spans = append(r.Spans, sub)
		}
	}
	for i := len(t.spans) - 1; i >= 0; i-- {
		p := int(t.spans[i].parent) - 1
		if p >= 0 && p < i {
			// Prepend: reverse attachment order restored to creation order.
			nodes[p].Children = append([]SpanReport{nodes[i]}, nodes[p].Children...)
		}
	}
	for i, s := range t.spans {
		if int(s.parent) == 0 {
			r.Spans = append(r.Spans, nodes[i])
		}
	}
	return r
}

func annotationMap(ann []annotation) map[string]string {
	if len(ann) == 0 {
		return nil
	}
	m := make(map[string]string, len(ann))
	for _, a := range ann {
		m[a.key] = a.val
	}
	return m
}

// remoteSubtree renders a grafted downstream report as one span whose
// children are the remote tree. The remote service's own root totals
// and error ride along; its span offsets stay on the remote clock until
// rebase shifts the whole subtree onto the local attempt's timeline
// (clock skew between processes is unknowable, so the attempt start is
// the honest anchor).
func remoteSubtree(rep TraceReport) SpanReport {
	name := rep.Name
	if name == "" {
		name = "remote"
	}
	sub := SpanReport{
		Name:        name,
		Service:     "remote",
		Micros:      rep.TotalMicros,
		Annotations: rep.Annotations,
		Error:       rep.Error,
		Children:    rep.Spans,
	}
	if rep.Candidates != 0 || rep.Blocks != 0 || rep.DescentNodes != 0 {
		if sub.Annotations == nil {
			sub.Annotations = make(map[string]string, 3)
		}
		sub.Annotations["descentNodes"] = fmt.Sprintf("%d", rep.DescentNodes)
		sub.Annotations["blocks"] = fmt.Sprintf("%d", rep.Blocks)
		sub.Annotations["candidates"] = fmt.Sprintf("%d", rep.Candidates)
	}
	return sub
}

// rebase shifts a subtree's start offsets by off microseconds.
func rebase(n SpanReport, off int64) SpanReport {
	n.StartMicros += off
	for i := range n.Children {
		n.Children[i] = rebase(n.Children[i], off)
	}
	return n
}
