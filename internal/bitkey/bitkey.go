// Package bitkey implements fixed-width 256-bit unsigned integers used as
// Hilbert curve indices. A D-dimensional, K-th order Hilbert curve needs
// K*D bits per index; the paper's configuration (D=20 one-byte components,
// K=8) needs 160 bits, so a fixed four-word representation covers every
// configuration this module supports (K*D <= 256) without allocation.
//
// Keys compare and sort like big-endian unsigned integers. Word 0 is the
// most significant word.
package bitkey

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Words is the number of 64-bit words in a Key.
const Words = 4

// MaxBits is the largest index width representable by a Key.
const MaxBits = Words * 64

// Key is a 256-bit unsigned integer. Key{} is zero. Word 0 holds the most
// significant 64 bits so that lexicographic comparison of the array equals
// numeric comparison.
type Key [Words]uint64

// Zero is the zero key.
var Zero Key

// FromUint64 returns a key holding v in the least significant word.
func FromUint64(v uint64) Key {
	var k Key
	k[Words-1] = v
	return k
}

// Uint64 returns the least significant 64 bits of k.
func (k Key) Uint64() uint64 { return k[Words-1] }

// Cmp compares k and o numerically, returning -1, 0, or +1.
func (k Key) Cmp(o Key) int {
	for i := 0; i < Words; i++ {
		switch {
		case k[i] < o[i]:
			return -1
		case k[i] > o[i]:
			return 1
		}
	}
	return 0
}

// Shl returns k << n. Shifting by MaxBits or more yields zero.
func (k Key) Shl(n uint) Key {
	if n >= MaxBits {
		return Zero
	}
	word := int(n / 64)
	off := n % 64
	var r Key
	for i := 0; i < Words; i++ {
		src := i + word
		if src < Words {
			r[i] = k[src] << off
			if off != 0 && src+1 < Words {
				r[i] |= k[src+1] >> (64 - off)
			}
		}
	}
	return r
}

// Shr returns k >> n. Shifting by MaxBits or more yields zero.
func (k Key) Shr(n uint) Key {
	if n >= MaxBits {
		return Zero
	}
	word := int(n / 64)
	off := n % 64
	var r Key
	for i := Words - 1; i >= 0; i-- {
		src := i - word
		if src >= 0 {
			r[i] = k[src] >> off
			if off != 0 && src-1 >= 0 {
				r[i] |= k[src-1] << (64 - off)
			}
		}
	}
	return r
}

// Add returns k + o, wrapping on overflow.
func (k Key) Add(o Key) Key {
	var r Key
	var carry uint64
	for i := Words - 1; i >= 0; i-- {
		s, c1 := bits.Add64(k[i], o[i], carry)
		r[i] = s
		carry = c1
	}
	return r
}

// Sub returns k - o, wrapping on underflow.
func (k Key) Sub(o Key) Key {
	var r Key
	var borrow uint64
	for i := Words - 1; i >= 0; i-- {
		d, b1 := bits.Sub64(k[i], o[i], borrow)
		r[i] = d
		borrow = b1
	}
	return r
}

// Inc returns k + 1.
func (k Key) Inc() Key { return k.Add(FromUint64(1)) }

// AddPow2 returns k + 2^n, wrapping on overflow: the exclusive end of the
// dyadic curve interval of length 2^n that starts at k. Unlike
// Add(FromUint64(1).Shl(n)) it touches one word unless a carry
// propagates. It panics if n >= MaxBits.
func (k Key) AddPow2(n uint) Key {
	w := Words - 1 - int(n>>6)
	var c uint64
	k[w], c = bits.Add64(k[w], 1<<(n&63), 0)
	for w--; c != 0 && w >= 0; w-- {
		k[w], c = bits.Add64(k[w], 0, c)
	}
	return k
}

// Bit returns bit i of k, where bit 0 is the least significant bit.
// It panics if i is out of range.
func (k Key) Bit(i uint) uint64 {
	if i >= MaxBits {
		panic(fmt.Sprintf("bitkey: bit index %d out of range", i))
	}
	word := Words - 1 - int(i/64)
	return (k[word] >> (i % 64)) & 1
}

// OrLowBits returns k | v where v occupies the least significant 64 bits.
func (k Key) OrLowBits(v uint64) Key {
	k[Words-1] |= v
	return k
}

// String renders k as a hexadecimal number without leading zeros.
func (k Key) String() string {
	if k == Zero {
		return "0x0"
	}
	s := "0x"
	started := false
	for i := 0; i < Words; i++ {
		if !started {
			if k[i] == 0 {
				continue
			}
			s += fmt.Sprintf("%x", k[i])
			started = true
		} else {
			s += fmt.Sprintf("%016x", k[i])
		}
	}
	return s
}

// PutBytes writes the low n bytes of k into dst in big-endian order, a
// word at a time from the least significant end. It panics if
// len(dst) < n or n > 32.
func (k Key) PutBytes(dst []byte, n int) {
	if n > MaxBits/8 {
		panic("bitkey: PutBytes width exceeds key size")
	}
	_ = dst[n-1]
	w := Words - 1
	for ; n >= 8; n, w = n-8, w-1 {
		binary.BigEndian.PutUint64(dst[n-8:], k[w])
	}
	if n > 0 {
		for v := k[w]; n > 0; n, v = n-1, v>>8 {
			dst[n-1] = byte(v)
		}
	}
}

// FromBytes reads an n-byte big-endian integer from src, a word at a
// time from the least significant end. It panics if len(src) < n or
// n > 32.
func FromBytes(src []byte, n int) Key {
	if n > MaxBits/8 {
		panic("bitkey: FromBytes width exceeds key size")
	}
	_ = src[n-1]
	var k Key
	w := Words - 1
	for ; n >= 8; n, w = n-8, w-1 {
		k[w] = binary.BigEndian.Uint64(src[n-8:])
	}
	for _, b := range src[:n] {
		k[w] = k[w]<<8 | uint64(b)
	}
	return k
}
