package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v, want 0", got)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{{0.50, 50}, {0.95, 95}, {0.99, 99}, {1, 100}, {0, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v (nearest rank)", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 0.95); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
}

// The quartiles must be the ones Python's statistics.quantiles(xs, n=4)
// gives, because that is what the driver computes its spread with.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 20, 30, 40, 50}, 15, 45},
		{[]float64{3, 1}, 0.5, 3.5}, // extrapolates, as Python does
		{[]float64{2, 4, 4, 5, 9, 11, 12}, 4, 11},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
		if got := iqr(c.xs); !near(got, c.q3-c.q1) {
			t.Errorf("iqr(%v) = %v, want %v", c.xs, got, c.q3-c.q1)
		}
	}
}

func TestSummarizeIsMedianOfWindows(t *testing.T) {
	s := summarize([]float64{10, 12, 11, 50, 9}) // one burst window
	if s.Value != 11 || s.N != 5 {
		t.Errorf("summarize = %+v, want median 11 of 5", s)
	}
	if s := summarize(nil); !s.NA {
		t.Errorf("summarize of nothing must be n/a, got %+v", s)
	}
}

func TestCutWindows(t *testing.T) {
	msd := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	// Two 1 s windows. Window 0: three batches (32 each), a range query
	// and the first quarter of a batch that straddles the boundary;
	// window 1: the rest of that batch, one whole batch, one failure, and
	// the first 10 of the 40 ms of an answer that lands after the phase
	// (its latency belongs to no window).
	at := func(start, end int, kind reqKind, weight int, ok bool) sample {
		return sample{Due: msd(start), Start: msd(start), End: msd(end), Kind: kind, Weight: weight, OK: ok}
	}
	samples := []sample{
		at(0, 10, kindStatBatch, 32, true),
		at(100, 130, kindStatBatch, 32, true),
		at(200, 220, kindStatBatch, 32, true),
		at(300, 301, kindRange, 1, true),
		at(990, 1030, kindStatBatch, 32, true),
		at(1500, 1540, kindStatBatch, 32, true),
		at(1600, 1700, kindStatBatch, 32, false),
		at(1990, 2030, kindStatBatch, 32, true),
	}
	ws := cutWindows(samples, 2*time.Second, 2, kindStatBatch)
	if len(ws.QPS) != 2 || !near(ws.QPS[0], 97+8) || !near(ws.QPS[1], 24+32+8) {
		t.Errorf("QPS = %v, want [105 64] (a batch counts 32 spread over its service time, a range query 1, failures 0)", ws.QPS)
	}
	if len(ws.P50) != 2 || ws.P50[0] != 20 || ws.P50[1] != 40 {
		t.Errorf("P50 = %v, want [20 40] (batches only)", ws.P50)
	}
	if ws.P95[0] != 30 {
		t.Errorf("P95[0] = %v, want 30", ws.P95[0])
	}
}
