package router

// Per-backend robustness state: the health classification written by
// the prober, the circuit breaker in front of the request path, the
// windowed latency estimator hedging keys on, and the bounded in-flight
// budget. One backend value is shared across every group it serves —
// its breaker and budget protect the process, not the placement entry.

import (
	"sync"
	"sync/atomic"
	"time"

	"s3cbcd/internal/obs"
)

// health is the prober's three-way classification of a backend.
type health int32

const (
	// healthHealthy: /healthz answered status "ok".
	healthHealthy health = iota
	// healthDegraded: the backend answered but advertised degraded
	// read-only mode (PR 4's ErrDegraded surface) or a draining
	// shutdown. It still serves searches — a routing de-preference, not
	// a user-visible error.
	healthDegraded
	// healthDown: the probe could not reach the backend or got a
	// non-200.
	healthDown
)

func (h health) String() string {
	switch h {
	case healthHealthy:
		return "healthy"
	case healthDegraded:
		return "degraded"
	default:
		return "down"
	}
}

// backend is one s3serve process the router can send requests to.
type backend struct {
	url string

	state   atomic.Int32 // health; optimistic healthy until the first probe
	records atomic.Int64 // record count from the last successful probe
	// curve is the X-S3-Curve geometry of the last successful search
	// reply; nil until the first.
	curve atomic.Pointer[string]

	lat *obs.Window // recent request latencies (seconds), feeds hedging
	br  *breaker

	inflight atomic.Int64 // requests currently against this backend
	budget   int64

	// Per-backend metric series (family constructed once in metrics.go).
	reqs       *obs.Counter
	failures   *obs.Counter
	reqSeconds *obs.Histogram
}

func (b *backend) health() health     { return health(b.state.Load()) }
func (b *backend) setHealth(h health) { b.state.Store(int32(h)) }

// tryAcquire claims one in-flight slot, refusing over budget.
func (b *backend) tryAcquire() bool {
	for {
		n := b.inflight.Load()
		if n >= b.budget {
			return false
		}
		if b.inflight.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

func (b *backend) release() { b.inflight.Add(-1) }

// breakerState is the circuit breaker's three-state machine.
type breakerState int32

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerOpen:
		return "open"
	default:
		return "half-open"
	}
}

// breaker is a consecutive-failure circuit breaker: threshold failures
// in a row open it, a cooldown later one half-open probe request is let
// through, and that probe's outcome either closes the breaker or
// re-opens it for another cooldown. It keeps a known-bad backend from
// eating a retry attempt (and its timeout) on every request while
// still discovering recovery quickly.
type breaker struct {
	mu        sync.Mutex
	state     breakerState
	failures  int // consecutive
	openedAt  time.Time
	threshold int           // <= 0: breaker disabled (always closed)
	cooldown  time.Duration // open -> half-open delay
	now       func() time.Time

	trips *obs.Counter // shared s3_router_breaker_trips_total
}

func newBreaker(threshold int, cooldown time.Duration, trips *obs.Counter) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown, now: time.Now, trips: trips}
}

// allow reports whether an attempt may be sent now. An open breaker
// past its cooldown transitions to half-open and admits exactly one
// probe; calls while half-open are refused until that probe reports.
// probe is true when this admission IS that half-open probe: the
// caller must guarantee exactly one of success, failure or cancelProbe
// eventually runs for it, or the breaker stays half-open forever and
// the backend is blackholed.
func (b *breaker) allow() (ok, probe bool) {
	if b.threshold <= 0 {
		return true, false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true, false
	case breakerOpen:
		if b.now().Sub(b.openedAt) >= b.cooldown {
			b.state = breakerHalfOpen
			return true, true
		}
		return false, false
	default: // half-open: the probe is in flight
		return false, false
	}
}

// available reports, without side effects, whether allow would admit an
// attempt — the replica-ordering predicate.
func (b *breaker) available() bool {
	if b.threshold <= 0 {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		return b.now().Sub(b.openedAt) >= b.cooldown
	default:
		return false
	}
}

// success reports a completed request: the breaker closes and the
// failure streak resets.
func (b *breaker) success() {
	if b.threshold <= 0 {
		return
	}
	b.mu.Lock()
	b.state = breakerClosed
	b.failures = 0
	b.mu.Unlock()
}

// failure reports a failed request. A half-open probe failure re-opens
// immediately; a closed breaker opens at the threshold.
func (b *breaker) failure() {
	if b.threshold <= 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures++
	switch b.state {
	case breakerHalfOpen:
		b.state = breakerOpen
		b.openedAt = b.now()
	case breakerClosed:
		if b.failures >= b.threshold {
			b.state = breakerOpen
			b.openedAt = b.now()
			if b.trips != nil {
				b.trips.Inc()
			}
		}
	}
}

// cancelProbe returns an unresolved half-open probe slot. The probe
// attempt was abandoned — canceled because a sibling won the race or
// the request budget expired — so it proved nothing about the backend
// either way. The breaker re-opens keeping its original trip time: the
// already-elapsed cooldown still counts, so the very next allow() may
// probe again instead of blackholing the backend behind a fresh
// cooldown it did nothing to earn.
func (b *breaker) cancelProbe() {
	if b.threshold <= 0 {
		return
	}
	b.mu.Lock()
	if b.state == breakerHalfOpen {
		b.state = breakerOpen
	}
	b.mu.Unlock()
}

// snapshot returns the current state for /healthz and the state gauge.
func (b *breaker) snapshot() breakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
