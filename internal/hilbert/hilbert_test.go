package hilbert

import (
	"math/rand"
	"testing"

	"s3cbcd/internal/bitkey"
)

// enumerate all indices of a small curve and decode them.
func decodeAll(t *testing.T, c *Curve) [][]uint32 {
	t.Helper()
	total := uint(c.IndexBits())
	if total > 20 {
		t.Fatalf("decodeAll: curve too large (%d bits)", total)
	}
	n := 1 << total
	pts := make([][]uint32, n)
	for i := 0; i < n; i++ {
		pt := make([]uint32, c.Dims())
		c.Decode(bitkey.FromUint64(uint64(i)), pt)
		pts[i] = pt
	}
	return pts
}

func TestEncodeDecodeRoundTripSmall(t *testing.T) {
	configs := [][2]int{{2, 4}, {3, 3}, {4, 3}, {5, 2}, {1, 8}, {7, 2}}
	for _, cfg := range configs {
		c := MustNew(cfg[0], cfg[1])
		pts := decodeAll(t, c)
		seen := make(map[string]bool, len(pts))
		for i, pt := range pts {
			h := c.Encode(pt)
			if h.Uint64() != uint64(i) || h.Shr(64) != bitkey.Zero {
				t.Fatalf("D=%d K=%d: Encode(Decode(%d)) = %v", cfg[0], cfg[1], i, h)
			}
			key := ""
			for _, v := range pt {
				key += string(rune(v)) + ","
			}
			if seen[key] {
				t.Fatalf("D=%d K=%d: point %v visited twice", cfg[0], cfg[1], pt)
			}
			seen[key] = true
		}
	}
}

// TestAdjacency is the defining Hilbert property: consecutive indices map
// to grid cells at L1 distance exactly 1.
func TestAdjacency(t *testing.T) {
	configs := [][2]int{{2, 5}, {3, 3}, {4, 3}, {5, 2}, {6, 2}}
	for _, cfg := range configs {
		c := MustNew(cfg[0], cfg[1])
		pts := decodeAll(t, c)
		for i := 1; i < len(pts); i++ {
			dist := 0
			for j := range pts[i] {
				d := int(pts[i][j]) - int(pts[i-1][j])
				if d < 0 {
					d = -d
				}
				dist += d
			}
			if dist != 1 {
				t.Fatalf("D=%d K=%d: cells %d->%d not adjacent: %v -> %v",
					cfg[0], cfg[1], i-1, i, pts[i-1], pts[i])
			}
		}
	}
}

func TestEncodeDecodeRoundTripLarge(t *testing.T) {
	// The paper's configuration: D=20, K=8 (160-bit indices).
	c := MustNew(20, 8)
	r := rand.New(rand.NewSource(7))
	pt := make([]uint32, 20)
	back := make([]uint32, 20)
	for i := 0; i < 2000; i++ {
		for j := range pt {
			pt[j] = uint32(r.Intn(256))
		}
		h := c.Encode(pt)
		c.Decode(h, back)
		for j := range pt {
			if pt[j] != back[j] {
				t.Fatalf("round trip failed at %d: %v != %v", j, pt, back)
			}
		}
	}
}

func TestEncodeOrderingLocality(t *testing.T) {
	// Sanity check of the clustering property the index relies on: a small
	// hypercube of cells should land on few, long runs of the curve. We
	// just assert that runs of consecutive indices exist (i.e. the mapping
	// is not scattering everything), not a precise clustering bound.
	c := MustNew(3, 5)
	var keys []uint64
	pt := make([]uint32, 3)
	for x := uint32(8); x < 12; x++ {
		for y := uint32(8); y < 12; y++ {
			for z := uint32(8); z < 12; z++ {
				pt[0], pt[1], pt[2] = x, y, z
				keys = append(keys, c.Encode(pt).Uint64())
			}
		}
	}
	// Count maximal runs of consecutive integers after sorting.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	runs := 1
	for i := 1; i < len(keys); i++ {
		if keys[i] != keys[i-1]+1 {
			runs++
		}
	}
	if runs >= len(keys) {
		t.Fatalf("no consecutive runs at all: %d runs for %d cells", runs, len(keys))
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 4); err == nil {
		t.Error("New(0,4) should fail")
	}
	if _, err := New(4, 0); err == nil {
		t.Error("New(4,0) should fail")
	}
	if _, err := New(65, 1); err == nil {
		t.Error("New(65,1) should fail")
	}
	if _, err := New(33, 8); err == nil {
		t.Error("New(33,8): 264 bits should fail")
	}
	if _, err := New(32, 8); err == nil {
		t.Error("New(32,8): 256 bits should fail (last interval end not representable)")
	}
	if _, err := New(51, 5); err != nil {
		t.Errorf("New(51,5): 255 bits should be accepted: %v", err)
	}
}

func TestEncodePanicsOnBadInput(t *testing.T) {
	c := MustNew(2, 4)
	assertPanics(t, func() { c.Encode([]uint32{1}) })
	assertPanics(t, func() { c.Encode([]uint32{1, 16}) })
	assertPanics(t, func() { c.Decode(bitkey.Zero, []uint32{0}) })
}

func assertPanics(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic")
		}
	}()
	f()
}

func TestGrayHelpers(t *testing.T) {
	for n := uint(1); n <= 16; n++ {
		for i := uint64(0); i < 1<<n; i++ {
			g := gray(i)
			if grayInverse(g, n) != i {
				t.Fatalf("grayInverse(gray(%d)) != %d for n=%d", i, i, n)
			}
		}
	}
	// Gray codes of consecutive integers differ in exactly one bit.
	for i := uint64(1); i < 1024; i++ {
		d := gray(i) ^ gray(i-1)
		if d&(d-1) != 0 || d == 0 {
			t.Fatalf("gray(%d)^gray(%d) = %b not a power of two", i, i-1, d)
		}
	}
}

func TestRotl(t *testing.T) {
	if got := rotl(0b0011, 1, 4); got != 0b0110 {
		t.Errorf("rotl = %b", got)
	}
	if got := rotl(0b1001, 1, 4); got != 0b0011 {
		t.Errorf("rotl wrap = %b", got)
	}
	if got := rotr(rotl(0b1011, 3, 5), 3, 5); got != 0b1011 {
		t.Errorf("rotr(rotl) = %b", got)
	}
	if got := rotl(0b101, 0, 3); got != 0b101 {
		t.Errorf("rotl by 0 = %b", got)
	}
}
