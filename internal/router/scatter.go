package router

// Per-group request execution: one shard group's query is driven
// against its replica set with deadline propagation, capped-exponential
// retries against siblings, latency-fence hedging, and the circuit
// breaker / in-flight budget in front of every launch. groupDo returns
// the first successful located reply; every other in-flight attempt is
// canceled the moment a winner lands.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"time"

	"s3cbcd/internal/httpapi"
	"s3cbcd/internal/obs"
)

// backendError is a failed backend exchange, classified for the retry
// policy. Retryable failures (transport errors, 5xx, torn bodies) are
// worth a sibling replica; non-retryable ones (4xx — the query itself
// is defective) would fail identically everywhere.
type backendError struct {
	status    int // 0 when the exchange never produced a status
	msg       string
	retryable bool
}

func (e *backendError) Error() string {
	if e.status != 0 {
		return fmt.Sprintf("backend status %d: %s", e.status, e.msg)
	}
	return e.msg
}

// maxBackendBody caps a backend response body (64 MiB): a berserk
// backend must not OOM the coordinator.
const maxBackendBody = 64 << 20

// subrequest is what every attempt of one client request sends, built
// once and shared read-only by all groups, attempts, retries and hedges.
type subrequest struct {
	path string
	body []byte
	// plan is the X-S3-Plan header value; nil when unplanned.
	plan  []string
	parse func([]byte) (*reply, error)
}

// attemptResult is one replica attempt's outcome.
type attemptResult struct {
	out   *reply
	err   error
	be    *backend
	hedge bool
	span  obs.SpanID
}

// Tracing hooks for the attempt path. Each is a single nil check when
// tracing is off — TestRouterAttemptNoAllocsUntraced pins that the
// whole set allocates nothing on an untraced launch.

// traceGroupStart opens one shard group's span.
func traceGroupStart(tr *obs.Trace, g int) obs.SpanID {
	if tr == nil {
		return 0
	}
	id := tr.StartSpan("group", 0)
	tr.Annotate(id, "group", strconv.Itoa(g))
	return id
}

// traceAttemptStart opens the span for one launched attempt.
func traceAttemptStart(tr *obs.Trace, parent obs.SpanID, be *backend, hedge bool, retry int) obs.SpanID {
	if tr == nil {
		return 0
	}
	id := tr.StartSpan("attempt", parent)
	tr.Annotate(id, "backend", be.url)
	if hedge {
		tr.Annotate(id, "hedge", "true")
	}
	if retry > 0 {
		tr.Annotate(id, "retry", strconv.Itoa(retry))
	}
	return id
}

// traceAttemptEnd closes an attempt span with its outcome: "ok",
// "error" (the backend genuinely failed) or "abandoned" (a sibling won
// or the deadline expired while this attempt was in flight — the
// hedge's losing leg, made visible instead of vanishing).
func traceAttemptEnd(tr *obs.Trace, id obs.SpanID, outcome string, err error) {
	if tr == nil {
		return
	}
	tr.Annotate(id, "outcome", outcome)
	if err != nil {
		tr.Annotate(id, "error", err.Error())
	}
	tr.EndSpan(id)
}

// traceSkip records a replica the launch loop rejected without sending
// anything: a tripped breaker or an exhausted in-flight budget.
func traceSkip(tr *obs.Trace, parent obs.SpanID, be *backend, reason string) {
	if tr == nil {
		return
	}
	id := tr.StartSpan("skip", parent)
	tr.Annotate(id, "backend", be.url)
	tr.Annotate(id, "reason", reason)
	tr.EndSpan(id)
}

// attempt performs one exchange with one backend: a POST of the
// subrequest, with its plan when it has one, and the context deadline
// propagated via X-S3-Deadline — and, for traced requests, the trace
// context via X-S3-Trace, so the backend traces the subquery and returns
// its report in-band for grafting under span. The body is read whole,
// checked with json.Valid and located by parse. Torn or non-JSON bodies,
// and replies parse rejects, are retryable failures — a half-written
// response must never be half-merged. A successful reply's X-S3-Curve
// is the backend's geometry, learned for planning.
func (r *Router) attempt(ctx context.Context, be *backend, sub *subrequest, tr *obs.Trace, span obs.SpanID) (*reply, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, be.url+sub.path, bytes.NewReader(sub.body))
	if err != nil {
		return nil, &backendError{msg: err.Error()}
	}
	req.Header.Set("Content-Type", "application/json")
	if sub.plan != nil {
		req.Header[httpapi.PlanHeader] = sub.plan
	}
	if dl, ok := ctx.Deadline(); ok {
		req.Header.Set(deadlineHeader, strconv.FormatInt(dl.UnixMilli(), 10))
	}
	if sc, ok := tr.Propagate(span); ok {
		req.Header.Set(obs.TraceHeader, sc.String())
	}
	be.reqs.Inc()
	t0 := time.Now()
	resp, err := r.client.Do(req)
	if err != nil {
		be.reqSeconds.ObserveSince(t0)
		return nil, &backendError{msg: err.Error(), retryable: true}
	}
	raw, err := readBody(resp)
	resp.Body.Close()
	elapsed := time.Since(t0)
	be.reqSeconds.Observe(elapsed.Seconds())
	if err != nil {
		// The connection died mid-body: torn response.
		return nil, &backendError{status: resp.StatusCode, msg: fmt.Sprintf("torn response: %v", err), retryable: true}
	}
	if resp.StatusCode != http.StatusOK {
		msg := errorMessage(raw)
		return nil, &backendError{
			status: resp.StatusCode,
			msg:    msg,
			// 5xx means this replica cannot answer right now (degraded,
			// shedding, crashed mid-handler); a sibling holding the same
			// shard may. 4xx would fail identically everywhere.
			retryable: resp.StatusCode >= 500,
		}
	}
	out, err := located(raw, sub.parse)
	if err != nil {
		return nil, err
	}
	r.learn(be, resp.Header.Get(httpapi.CurveHeader))
	if tr != nil && len(out.trace) > 0 {
		// Grafting failure is already counted and leaves an error
		// placeholder in the tree; the answer itself is fine.
		_ = tr.AttachRemote(span, out.trace)
	}
	// Only clean, complete, located exchanges feed the latency window:
	// hedge delays should track service time, not failure modes.
	be.lat.Observe(elapsed.Seconds())
	return out, nil
}

// located validates a 200 body once and hands it to parse. A body that
// is not JSON — torn mid-write — or not of the route's shape is a
// retryable failure.
func located(raw []byte, parse func([]byte) (*reply, error)) (*reply, error) {
	if !json.Valid(raw) {
		return nil, &backendError{msg: fmt.Sprintf("torn response: %d-byte body is not JSON", len(raw)), retryable: true}
	}
	out, err := parse(raw)
	if err != nil {
		return nil, &backendError{msg: fmt.Sprintf("torn response: %v", err), retryable: true}
	}
	return out, nil
}

// readBody reads a response body in one read when its length is
// declared, capped at maxBackendBody either way.
func readBody(resp *http.Response) ([]byte, error) {
	n := resp.ContentLength
	if n < 0 || n > maxBackendBody {
		return io.ReadAll(io.LimitReader(resp.Body, maxBackendBody))
	}
	raw := make([]byte, n)
	_, err := io.ReadFull(resp.Body, raw)
	return raw, err
}

// errorMessage pulls the {"error": ...} body the backends send, falling
// back to a byte-count note for opaque bodies.
func errorMessage(raw []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(raw, &e) == nil && e.Error != "" {
		return e.Error
	}
	return fmt.Sprintf("%d-byte non-JSON error body", len(raw))
}

// replicaOrder returns group g's replicas in preference order: the
// round-robin cursor rotates the set for load spread, then a stable
// sort ranks healthy before degraded before down, breaker-available
// before tripped, and in-budget before saturated. Nothing is excluded
// — when every replica looks bad the attempt loop still tries them in
// least-bad order rather than failing without trying.
func (r *Router) replicaOrder(g int) []*backend {
	replicas := r.groups[g]
	n := len(replicas)
	rot := int(r.rrs[g].Add(1)-1) % n
	order := make([]*backend, 0, n)
	for i := 0; i < n; i++ {
		order = append(order, replicas[(rot+i)%n])
	}
	score := func(b *backend) int {
		s := int(b.health())
		if !b.br.available() {
			s += 3
		}
		if b.inflight.Load() >= b.budget {
			s += 6
		}
		return s
	}
	// Insertion sort: n is single digits, and stability preserves the
	// round-robin rotation within equal scores.
	for i := 1; i < n; i++ {
		for j := i; j > 0 && score(order[j]) < score(order[j-1]); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	return order
}

// hedgeFenceK is Tukey's far-out multiplier: hedgeDelay's fence sits
// hedgeFenceK interquartile ranges above the HedgeQuantile latency.
const hedgeFenceK = 3

// hedgeDelay is how long groupDo waits on an in-flight attempt before
// firing a hedge at a sibling: the smallest outlier fence across the
// group's replicas, Q(HedgeQuantile) + hedgeFenceK·IQR of each one's
// recent latencies — "this attempt is an outlier even for the fastest
// sibling". A fixed quantile would hedge a fixed share of healthy
// traffic, mostly queries that are just as slow on every replica; the
// fence scales with the spread the window shows. Keying on the best
// sibling rather than the attempted backend's own window matters when
// one replica is uniformly slow: its own fence IS the slowness, and
// would never trigger the hedge that rescues its queries. HedgeMin
// floors the delay so a microsecond-fast fixture can't hedge every
// request; with too few observations to trust a tail estimate
// anywhere, the delay falls back to HedgeMin * 8.
func (r *Router) hedgeDelay(replicas []*backend) time.Duration {
	const minSamples = 8
	qs := [3]float64{r.opt.HedgeQuantile, 0.25, 0.75}
	var v [3]float64
	best := time.Duration(-1)
	for _, be := range replicas {
		if be.lat.Count() < minSamples {
			continue
		}
		be.lat.Quantiles(v[:], qs[:])
		d := time.Duration((v[0] + hedgeFenceK*(v[2]-v[1])) * float64(time.Second))
		if best < 0 || d < best {
			best = d
		}
	}
	if best < 0 {
		return r.opt.HedgeMin * 8
	}
	if best < r.opt.HedgeMin {
		best = r.opt.HedgeMin
	}
	return best
}

// backoff is the capped-exponential delay before retry number n (1 is
// the first retry).
func (r *Router) backoff(n int) time.Duration {
	d := r.opt.RetryBackoff << (n - 1)
	if d > maxRetryBackoff || d <= 0 {
		d = maxRetryBackoff
	}
	return d
}

// groupDo resolves one shard group's subquery: walk the ordered
// replicas launching attempts, hedge when the in-flight attempt
// outlives the hedge fence (hedgeDelay), back off and retry siblings on
// retryable failures, and cancel every loser once a winner lands. The
// error, when every budgeted attempt failed, is the last failure.
func (r *Router) groupDo(ctx context.Context, g int, sub *subrequest) (*reply, error) {
	gctx, cancel := context.WithCancel(ctx)
	defer cancel()

	tr := obs.FromContext(ctx)
	gspan := traceGroupStart(tr, g)
	defer tr.EndSpan(gspan)

	// Attempts still in flight when the group resolves (losers to a
	// winner, or killed by the deadline) are closed as abandoned here,
	// deterministically before the trace can be reported; an attempt
	// whose goroutine beat this sweep to its own verdict keeps the more
	// specific outcome.
	var openSpans []obs.SpanID
	if tr != nil {
		defer func() {
			for _, id := range openSpans {
				tr.EndAbandoned(id)
			}
		}()
	}

	// The candidate list cycles through the replica preference order:
	// a transient failure (a shed 503, a torn response) on every sibling
	// must not exhaust the group while retry budget remains — the replica
	// that failed first may well serve the retry. The list is bounded by
	// the worst-case launch count: the primary, every budgeted retry, and
	// one hedge per launch.
	base := r.replicaOrder(g)
	maxLaunches := 2 * (r.opt.Retries + 1)
	order := make([]*backend, 0, maxLaunches)
	for i := 0; len(order) < maxLaunches; i++ {
		order = append(order, base[i%len(base)])
	}
	resc := make(chan attemptResult, len(order)+1)
	next := 0
	// running holds the backend of every attempt of this group still in
	// flight, once per attempt.
	var running []*backend

	// launch starts an attempt on the next admissible replica. A hedge
	// passes over replicas in running: doubling up on the replica that
	// holds the slow attempt races the query against itself. Those
	// entries stay in the candidate list for a retry, which may reuse a
	// replica. The in-flight slot is claimed before the breaker is
	// consulted — allow may consume the half-open probe slot, and a full
	// budget discovered afterwards would strand it. The attempt's breaker
	// outcome is resolved in its own goroutine, exactly once per launch,
	// no matter how groupDo exits: a loser abandoned when a sibling wins
	// and an attempt killed by the deadline must still report, or a
	// half-open breaker waits forever for a verdict that never comes and
	// the backend is blackholed until restart.
	launch := func(hedge bool, retry int) *backend {
		for i := next; i < len(order); i++ {
			be := order[i]
			if hedge && slices.Contains(running, be) {
				continue
			}
			order[next], order[i] = be, order[next]
			next++
			if !be.tryAcquire() {
				traceSkip(tr, gspan, be, "budget")
				continue
			}
			ok, probe := be.br.allow()
			if !ok {
				be.release()
				traceSkip(tr, gspan, be, "breaker")
				continue
			}
			running = append(running, be)
			aspan := traceAttemptStart(tr, gspan, be, hedge, retry)
			if tr != nil {
				openSpans = append(openSpans, aspan)
			}
			go func() {
				defer be.release()
				out, err := r.attempt(gctx, be, sub, tr, aspan)
				switch {
				case err == nil:
					be.br.success()
					traceAttemptEnd(tr, aspan, "ok", nil)
				case gctx.Err() != nil:
					// Canceled under us — a sibling won or the budget
					// expired. That says nothing about this backend, so no
					// failure is charged, but an unresolved probe slot must
					// go back.
					if probe {
						be.br.cancelProbe()
					}
					traceAttemptEnd(tr, aspan, "abandoned", err)
				default:
					be.failures.Inc()
					be.br.failure()
					traceAttemptEnd(tr, aspan, "error", err)
				}
				select {
				case resc <- attemptResult{out: out, err: err, be: be, hedge: hedge, span: aspan}:
				case <-gctx.Done():
				}
			}()
			return be
		}
		return nil
	}

	primary := launch(false, 0)
	if primary == nil {
		return nil, &backendError{msg: fmt.Sprintf("group %d: no admissible replica (breakers open or budgets full)", g), retryable: true}
	}

	hedgeArmed := r.opt.HedgeQuantile > 0 && len(base) > 1
	var hedgeTimer *time.Timer
	var hedgeC <-chan time.Time
	if hedgeArmed {
		hedgeTimer = time.NewTimer(r.hedgeDelay(base))
		defer hedgeTimer.Stop()
		hedgeC = hedgeTimer.C
	}

	var retryC <-chan time.Time
	var retryTimer *time.Timer
	defer func() {
		if retryTimer != nil {
			retryTimer.Stop()
		}
	}()

	failures := 0
	var lastErr error
	for {
		select {
		case res := <-resc:
			i := slices.Index(running, res.be)
			running = slices.Delete(running, i, i+1)
			if tr != nil {
				for i, id := range openSpans {
					if id == res.span {
						openSpans = append(openSpans[:i], openSpans[i+1:]...)
						break
					}
				}
			}
			if res.err == nil {
				if res.hedge {
					r.met.hedgeWins.Inc()
				}
				if tr != nil {
					tr.Annotate(res.span, "winner", "true")
				}
				cancel() // losers stop refining immediately
				return res.out, nil
			}
			lastErr = res.err
			be := res.err.(*backendError)
			// A context-cancellation transport error after the parent ctx
			// ended is the deadline, not the backend. (Breaker and failure
			// accounting happened in the attempt goroutine.)
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			if !be.retryable {
				cancel()
				return nil, res.err
			}
			failures++
			if failures > r.opt.Retries || next >= len(order) {
				if len(running) > 0 {
					continue // a hedge is still running; it may yet win
				}
				return nil, lastErr
			}
			if retryC == nil && len(running) == 0 {
				// Nothing in flight: schedule the backoff-spaced retry.
				retryTimer = time.NewTimer(r.backoff(failures))
				retryC = retryTimer.C
			}

		case <-retryC:
			retryC = nil
			r.met.retries.Inc()
			if be := launch(false, failures); be == nil {
				if len(running) == 0 {
					return nil, lastErr
				}
			} else if hedgeArmed && hedgeTimer != nil {
				// Drain a tick the timer may have fired while another select
				// case won the race, or the fresh attempt would be hedged
				// immediately instead of after its computed delay.
				if !hedgeTimer.Stop() {
					select {
					case <-hedgeTimer.C:
					default:
					}
				}
				hedgeTimer.Reset(r.hedgeDelay(base))
				hedgeC = hedgeTimer.C
			}

		case <-hedgeC:
			hedgeC = nil
			// Only a hedge that found an admissible replica is counted.
			if launch(true, 0) != nil {
				r.met.hedges.Inc()
			}

		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}
