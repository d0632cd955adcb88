package obs

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

func TestWindowQuantileEmpty(t *testing.T) {
	w := NewWindow(8)
	if got := w.Quantile(0.5); got != 0 {
		t.Fatalf("empty window quantile = %v, want 0", got)
	}
	if w.Count() != 0 {
		t.Fatalf("empty window count = %d", w.Count())
	}
}

func TestWindowQuantileExact(t *testing.T) {
	w := NewWindow(10)
	for _, v := range []float64{5, 1, 9, 3, 7} {
		w.Observe(v)
	}
	if w.Count() != 5 {
		t.Fatalf("count = %d, want 5", w.Count())
	}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.2, 3}, {0.5, 5}, {0.9, 9}, {1, 9},
		{-1, 1}, {2, 9}, // clamped
	}
	for _, c := range cases {
		if got := w.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

// The window forgets: once the ring wraps, only the most recent size
// observations shape the quantile — a slow past must not linger.
func TestWindowEvictsOldest(t *testing.T) {
	w := NewWindow(4)
	for i := 0; i < 4; i++ {
		w.Observe(1000) // slow era
	}
	for i := 0; i < 4; i++ {
		w.Observe(1) // recovered
	}
	if got := w.Quantile(0.99); got != 1 {
		t.Fatalf("p99 after recovery = %v, want 1 (old slow samples must be evicted)", got)
	}
	if w.Count() != 4 {
		t.Fatalf("count = %d, want 4", w.Count())
	}
}

func TestWindowDefaultSize(t *testing.T) {
	w := NewWindow(0)
	for i := 0; i < DefaultWindowSize+10; i++ {
		w.Observe(float64(i))
	}
	if w.Count() != DefaultWindowSize {
		t.Fatalf("count = %d, want %d", w.Count(), DefaultWindowSize)
	}
}

// Concurrent observers and readers must not race (run under -race via
// the obs package's RACE_PKGS membership).
func TestWindowConcurrent(t *testing.T) {
	w := NewWindow(32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				w.Observe(float64(g*1000 + i))
				_ = w.Quantile(0.9)
			}
		}(g)
	}
	wg.Wait()
	if w.Count() != 32 {
		t.Fatalf("count = %d, want 32", w.Count())
	}
}

// TestWindowQuantileMatchesSort checks selection against the definition
// — sort a copy, take rank int(q·n) — on random windows with heavy ties,
// partial fill, wrapped rings and NaNs. Quantiles is held to the same
// definition for random rank lists in random order, repeats included.
func TestWindowQuantileMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	qs := make([]float64, 0, 6)
	got := make([]float64, 6)
	for trial := 0; trial < 2000; trial++ {
		size := 1 + rng.Intn(130)
		w := NewWindow(size)
		var kept []float64
		for i, n := 0, rng.Intn(3*size); i < n; i++ {
			v := float64(rng.Intn(1 + rng.Intn(20))) // ties
			switch rng.Intn(20) {
			case 0:
				v = math.NaN()
			case 1:
				v = rng.NormFloat64()
			}
			w.Observe(v)
			if kept = append(kept, v); len(kept) > size {
				kept = kept[1:]
			}
		}
		sorted := append([]float64(nil), kept...)
		sort.Float64s(sorted)
		for _, q := range []float64{0, 0.5, 0.9, 1} {
			if v, want := w.Quantile(q), sortedRank(sorted, q); !sameFloat(v, want) {
				t.Fatalf("size %d, %d kept, q %v: selection %v, sort %v (window %v)", size, len(kept), q, v, want, kept)
			}
		}
		qs = qs[:0]
		for i, n := 0, 1+rng.Intn(cap(qs)); i < n; i++ {
			q := rng.Float64()
			switch rng.Intn(6) {
			case 0:
				q = float64(rng.Intn(5)) / 4 // 0, quartiles, 1
			case 1:
				if i > 0 {
					q = qs[rng.Intn(i)] // a rank already placed
				}
			}
			qs = append(qs, q)
		}
		w.Quantiles(got, qs)
		for i, q := range qs {
			if want := sortedRank(sorted, q); !sameFloat(got[i], want) {
				t.Fatalf("size %d, %d kept, Quantiles(%v)[%d]: selection %v, sort %v (window %v)", size, len(kept), qs, i, got[i], want, kept)
			}
		}
	}
}

// sortedRank is the definition Quantile selects: rank int(q·n) of the
// sorted observations, 0 when there are none.
func sortedRank(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[min(int(q*float64(len(sorted))), len(sorted)-1)]
}

func sameFloat(a, b float64) bool { return a == b || (math.IsNaN(a) && math.IsNaN(b)) }

// The hedging path reads every replica's window per group per request:
// neither Quantile nor Quantiles may allocate.
func TestWindowQuantileNoAllocs(t *testing.T) {
	w := NewWindow(0)
	for i := 0; i < 3*DefaultWindowSize; i++ {
		w.Observe(float64(i % 17))
	}
	if a := testing.AllocsPerRun(100, func() { w.Quantile(0.9) }); a != 0 {
		t.Fatalf("Quantile allocates %.1f per call", a)
	}
	var dst [3]float64
	if a := testing.AllocsPerRun(100, func() { w.Quantiles(dst[:], []float64{0.95, 0.25, 0.75}) }); a != 0 {
		t.Fatalf("Quantiles allocates %.1f per call", a)
	}
}
