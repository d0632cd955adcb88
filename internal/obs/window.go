package obs

// Window is a fixed-size sliding window of float64 observations with
// on-demand quantiles — the estimator a hedging policy needs ("what has
// this backend's p90 been lately?") where a cumulative Histogram is the
// wrong tool: a histogram never forgets, so a backend that was slow an
// hour ago would keep triggering hedges long after it recovered. The
// window holds the most recent Size observations and computes exact
// quantiles over them by selection in scratch space the window owns, so
// a hedging decision — made per replica, per group, per request —
// neither allocates nor sorts.
//
// A Window is safe for concurrent use. It is an estimator, not a
// Metric: it does not render into a Registry (register a GaugeFunc over
// Quantile for that).

import "sync"

// DefaultWindowSize is the observation capacity NewWindow(0) selects:
// large enough that one outlier cannot drag a tail quantile, small
// enough that the estimate tracks a backend whose behaviour changed a
// few hundred requests ago.
const DefaultWindowSize = 128

// Window is a concurrency-safe sliding window of observations.
type Window struct {
	mu      sync.Mutex
	buf     []float64
	next    int       // ring write position
	n       int       // live observations, <= len(buf)
	scratch []float64 // Quantile's selection space, guarded by mu
}

// NewWindow returns a window retaining the size most recent
// observations; size <= 0 selects DefaultWindowSize.
func NewWindow(size int) *Window {
	if size <= 0 {
		size = DefaultWindowSize
	}
	return &Window{buf: make([]float64, size), scratch: make([]float64, size)}
}

// Observe records one observation, evicting the oldest when full.
func (w *Window) Observe(v float64) {
	w.mu.Lock()
	w.buf[w.next] = v
	w.next = (w.next + 1) % len(w.buf)
	if w.n < len(w.buf) {
		w.n++
	}
	w.mu.Unlock()
}

// Count returns the number of live observations (saturates at the
// window size).
func (w *Window) Count() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.n
}

// Quantile returns the exact q-quantile (0 <= q <= 1, nearest-rank) of
// the retained observations, or 0 when the window is empty. q is
// clamped into [0, 1]. The value is the one sort.Float64s would put at
// rank q·n (NaNs ordered first), found by selection.
func (w *Window) Quantile(q float64) float64 {
	var v [1]float64
	w.Quantiles(v[:], []float64{q})
	return v[0]
}

// Quantiles writes into dst[i] what Quantile(qs[i]) would return, for
// every i, from one copy of the window taken under one lock: a caller
// that needs several ranks of the same window (a quantile plus its
// quartiles) pays one copy and sees one consistent snapshot. Each
// selection leaves the scratch partitioned around its rank, so a later
// rank is selected only between the nearest ranks already placed. dst
// must be at least as long as qs.
func (w *Window) Quantiles(dst, qs []float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.n == 0 {
		clear(dst[:len(qs)])
		return
	}
	s := w.scratch[:w.n]
	copy(s, w.buf[:w.n])
	for i, q := range qs {
		k := w.rank(q)
		lo, hi := 0, w.n
		for _, p := range qs[:i] {
			switch j := w.rank(p); {
			case j <= k && j > lo:
				lo = j
			case j > k && j < hi:
				hi = j
			}
		}
		dst[i] = selectRank(s[lo:hi], k-lo)
	}
}

// rank is the nearest-rank index of quantile q over the n live
// observations; q is clamped into [0, 1] (NaN selects 0). w.mu held.
func (w *Window) rank(q float64) int {
	if !(q > 0) { // NaN too
		q = 0
	}
	return min(int(min(q, 1)*float64(w.n)), w.n-1)
}

// less is sort.Float64s' order: ascending, NaNs first.
func less(a, b float64) bool { return a < b || (a != a && b == b) }

// selectRank reorders s so that s[k] holds the value of rank k and
// returns it (quickselect with a median-of-three pivot).
func selectRank(s []float64, k int) float64 {
	lo, hi := 0, len(s)-1
	for lo < hi {
		m := lo + (hi-lo)/2
		if less(s[m], s[lo]) {
			s[m], s[lo] = s[lo], s[m]
		}
		if less(s[hi], s[lo]) {
			s[hi], s[lo] = s[lo], s[hi]
		}
		if less(s[hi], s[m]) {
			s[hi], s[m] = s[m], s[hi]
		}
		p := s[m]
		i, j := lo, hi
		for i <= j {
			for less(s[i], p) {
				i++
			}
			for less(p, s[j]) {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		// s[lo..j] <= p <= s[i..hi], and anything between equals p.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return s[k]
		}
	}
	return s[k]
}
