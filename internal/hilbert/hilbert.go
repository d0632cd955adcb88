// Package hilbert implements a D-dimensional, K-th order Hilbert space
// filling curve using the Gray-code state-machine formulation (Butz's
// algorithm in Hamilton's compact form). Unlike table-driven approaches
// (Lawder), it requires O(1) memory regardless of the dimension, which is
// what makes the S³ paper's D = 20 configuration feasible.
//
// Besides point <-> index mapping, the package exposes the "p-block"
// descent the S³ index is built on: partitioning the curve into 2^p equal
// intervals induces, for every p in [1, K*D], a partition of the grid into
// 2^p hyper-rectangular blocks of equal volume (Figure 2 of the paper).
// Descend enumerates those blocks in curve order with caller-controlled
// pruning, which is how both statistical and geometric filtering rules are
// evaluated without materializing the partition.
package hilbert

import (
	"fmt"
	"math/bits"

	"s3cbcd/internal/bitkey"
)

// Curve describes a Hilbert curve on the grid [0, 2^K)^D.
type Curve struct {
	dims  int // D, number of dimensions
	order int // K, bits per dimension
}

// New returns a curve for dims dimensions of order bits each.
// It returns an error when the index would not fit a bitkey.Key
// (dims*order > bitkey.MaxBits), dims exceeds 64, or either value is < 1.
func New(dims, order int) (*Curve, error) {
	switch {
	case dims < 1 || order < 1:
		return nil, fmt.Errorf("hilbert: dims and order must be >= 1 (got %d, %d)", dims, order)
	case dims > 64:
		return nil, fmt.Errorf("hilbert: dims %d exceeds 64", dims)
	case dims*order >= bitkey.MaxBits:
		// Strictly below MaxBits: the exclusive end of the last curve
		// interval is 2^(dims*order), which must itself be representable.
		return nil, fmt.Errorf("hilbert: dims*order = %d must be below %d index bits", dims*order, bitkey.MaxBits)
	}
	return &Curve{dims: dims, order: order}, nil
}

// MustNew is New, panicking on error. For static configurations.
func MustNew(dims, order int) *Curve {
	c, err := New(dims, order)
	if err != nil {
		panic(err)
	}
	return c
}

// Dims returns D.
func (c *Curve) Dims() int { return c.dims }

// Order returns K.
func (c *Curve) Order() int { return c.order }

// IndexBits returns K*D, the number of bits in a curve index.
func (c *Curve) IndexBits() int { return c.dims * c.order }

// SideLen returns 2^K, the grid side length.
func (c *Curve) SideLen() uint32 { return 1 << uint(c.order) }

// gray returns the reflected binary Gray code of i.
func gray(i uint64) uint64 { return i ^ (i >> 1) }

// grayInverse inverts gray for n-bit values.
func grayInverse(g uint64, n uint) uint64 {
	i := g
	for shift := uint(1); shift < n; shift <<= 1 {
		i ^= i >> shift
	}
	return i
}

// rotl rotates the low n bits of x left by r, 0 <= r <= n. Every caller
// rotates by a direction plus one, so the reduction modulo n is one
// compare — the state transitions sit on the descent's per-node path,
// which performs no integer divide.
func rotl(x uint64, r, n uint) uint64 {
	if r == 0 || r == n {
		return x
	}
	mask := uint64(1)<<n - 1
	return ((x << r) | (x >> (n - r))) & mask
}

// rotr rotates the low n bits of x right by r, 0 <= r <= n.
func rotr(x uint64, r, n uint) uint64 {
	return rotl(x, n-r, n)
}

// entry returns the entry point e(w) of sub-cube w in the canonical cell
// (Hamilton, Lemma 2.11).
func entry(w uint64) uint64 {
	if w == 0 {
		return 0
	}
	return gray((w - 1) &^ 1)
}

// direction returns the intra sub-cube direction d(w) (Hamilton, Lemma
// 2.8), reduced modulo n.
func direction(w uint64, n uint) uint {
	if w == 0 {
		return 0
	}
	if w&1 == 0 {
		w--
	}
	// w < 2^n has at most n trailing ones.
	d := uint(bits.TrailingZeros64(^w))
	if d == n {
		return 0
	}
	return d
}

// state is the per-level transform of the curve: cells are relabelled by
// t = rotr(label ^ e, d+1) before Gray-ranking.
type state struct {
	e uint64
	d uint
}

func initialState() state { return state{e: 0, d: 0} }

// next returns the state of sub-cell w's own level.
func (s state) next(w uint64, n uint) state {
	d := s.d + direction(w, n) + 1 // both terms below n
	if d >= n {
		d -= n
	}
	return state{e: s.e ^ rotl(entry(w), s.d+1, n), d: d}
}

// transform maps a cell label (bit j = high/low half of dimension j) to
// its position along the curve ordering of the current level.
func (s state) transform(label uint64, n uint) uint64 {
	return rotr(label^s.e, s.d+1, n)
}

// inverse maps a curve-order Gray code back to the cell label.
func (s state) inverse(t uint64, n uint) uint64 {
	return rotl(t, s.d+1, n) ^ s.e
}

// Encode maps grid point pt (len == D, each coordinate < 2^K) to its index
// on the curve. It panics on malformed input; the caller owns validation.
func (c *Curve) Encode(pt []uint32) bitkey.Key {
	if len(pt) != c.dims {
		panic(fmt.Sprintf("hilbert: Encode got %d coordinates, want %d", len(pt), c.dims))
	}
	n := uint(c.dims)
	side := c.SideLen()
	for j, v := range pt {
		if v >= side {
			panic(fmt.Sprintf("hilbert: coordinate %d = %d out of range [0,%d)", j, v, side))
		}
	}
	var h bitkey.Key
	s := initialState()
	for i := c.order - 1; i >= 0; i-- {
		var label uint64
		for j := 0; j < c.dims; j++ {
			label |= uint64((pt[j]>>uint(i))&1) << uint(j)
		}
		w := grayInverse(s.transform(label, n), n)
		h = h.Shl(n).OrLowBits(w)
		s = s.next(w, n)
	}
	return h
}

// Decode maps a curve index back to its grid point. The result is written
// into pt, which must have length D.
func (c *Curve) Decode(h bitkey.Key, pt []uint32) {
	if len(pt) != c.dims {
		panic(fmt.Sprintf("hilbert: Decode got %d coordinates, want %d", len(pt), c.dims))
	}
	n := uint(c.dims)
	for j := range pt {
		pt[j] = 0
	}
	s := initialState()
	total := uint(c.IndexBits())
	for i := c.order - 1; i >= 0; i-- {
		// Extract the n index bits of this level.
		var w uint64
		base := total - uint(c.order-i)*n // lowest bit position of this level's chunk
		for b := uint(0); b < n; b++ {
			w |= h.Bit(base+b) << b
		}
		label := s.inverse(gray(w), n)
		for j := 0; j < c.dims; j++ {
			pt[j] |= uint32((label>>uint(j))&1) << uint(i)
		}
		s = s.next(w, n)
	}
}
