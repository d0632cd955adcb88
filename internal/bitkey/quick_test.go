package bitkey

import (
	"testing"
	"testing/quick"
)

// TestQuickShiftInverse: for shifts that do not drop set bits, Shr undoes
// Shl and vice versa.
func TestQuickShiftInverse(t *testing.T) {
	f := func(w [Words]uint64, nRaw uint8) bool {
		k := Key(w)
		n := uint(nRaw) % 64
		// Mask the top n bits so Shl cannot overflow.
		masked := k.Shl(n).Shr(n)
		return masked.Shl(n).Shr(n) == masked
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickAddSubInverse: subtraction undoes addition (mod 2^256).
func TestQuickAddSubInverse(t *testing.T) {
	f := func(aw, bw [Words]uint64) bool {
		a, b := Key(aw), Key(bw)
		return a.Add(b).Sub(b) == a && a.Sub(b).Add(b) == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickBitRoundTrip: Bit reads back every bit of a key rebuilt from
// its bits with Shl and OrLowBits.
func TestQuickBitRoundTrip(t *testing.T) {
	f := func(w [Words]uint64) bool {
		k := Key(w)
		var rebuilt Key
		for i := MaxBits - 1; i >= 0; i-- {
			rebuilt = rebuilt.Shl(1).OrLowBits(k.Bit(uint(i)))
		}
		return rebuilt == k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
