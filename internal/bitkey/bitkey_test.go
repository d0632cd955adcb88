package bitkey

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func toBig(k Key) *big.Int {
	v := new(big.Int)
	for i := 0; i < Words; i++ {
		v.Lsh(v, 64)
		v.Or(v, new(big.Int).SetUint64(k[i]))
	}
	return v
}

func fromBig(v *big.Int) Key {
	var k Key
	mask := new(big.Int).SetUint64(^uint64(0))
	t := new(big.Int).Set(v)
	for i := Words - 1; i >= 0; i-- {
		k[i] = new(big.Int).And(t, mask).Uint64()
		t.Rsh(t, 64)
	}
	return k
}

func randKey(r *rand.Rand) Key {
	var k Key
	for i := range k {
		k[i] = r.Uint64()
	}
	return k
}

func TestFromUint64RoundTrip(t *testing.T) {
	for _, v := range []uint64{0, 1, 42, 1 << 63, ^uint64(0)} {
		if got := FromUint64(v).Uint64(); got != v {
			t.Errorf("FromUint64(%d).Uint64() = %d", v, got)
		}
	}
}

func TestCmp(t *testing.T) {
	a := FromUint64(5)
	b := FromUint64(9)
	c := FromUint64(9).Shl(64)
	if a.Cmp(b) != -1 || b.Cmp(a) != 1 || a.Cmp(a) != 0 {
		t.Fatalf("small Cmp wrong")
	}
	if b.Cmp(c) != -1 {
		t.Fatalf("expected %v < %v", b, c)
	}
}

func TestShiftAgainstBig(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	mod := new(big.Int).Lsh(big.NewInt(1), MaxBits)
	for i := 0; i < 500; i++ {
		k := randKey(r)
		n := uint(r.Intn(MaxBits + 10))
		wantL := new(big.Int).Lsh(toBig(k), n)
		wantL.Mod(wantL, mod)
		if got := toBig(k.Shl(n)); got.Cmp(wantL) != 0 {
			t.Fatalf("Shl(%v, %d) = %v, want %v", k, n, got, wantL)
		}
		wantR := new(big.Int).Rsh(toBig(k), n)
		if got := toBig(k.Shr(n)); got.Cmp(wantR) != 0 {
			t.Fatalf("Shr(%v, %d) = %v, want %v", k, n, got, wantR)
		}
	}
}

// TestBytesAgainstBig cross-checks the word-wise PutBytes and FromBytes
// against math/big at every width: PutBytes writes k mod 2^(8n)
// big-endian, FromBytes reads any n bytes as that integer.
func TestBytesAgainstBig(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	for n := 1; n <= 32; n++ {
		mod := new(big.Int).Lsh(big.NewInt(1), uint(8*n))
		for trial := 0; trial < 64; trial++ {
			k := randKey(r)
			buf := make([]byte, n+1)
			buf[n] = 0xA5 // PutBytes must not write past n
			k.PutBytes(buf, n)
			if want := new(big.Int).Mod(toBig(k), mod); new(big.Int).SetBytes(buf[:n]).Cmp(want) != 0 || buf[n] != 0xA5 {
				t.Fatalf("PutBytes n=%d: %x, want %x", n, buf, want)
			}
			r.Read(buf)
			if got, want := toBig(FromBytes(buf, n)), new(big.Int).SetBytes(buf[:n]); got.Cmp(want) != 0 {
				t.Fatalf("FromBytes n=%d: %x, want %x", n, got, want)
			}
		}
	}
}

func TestAddPow2AgainstBig(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	mod := new(big.Int).Lsh(big.NewInt(1), MaxBits)
	for i := 0; i < 2000; i++ {
		k := randKey(r)
		switch i % 4 {
		case 1: // force carry chains through whole words
			k[Words-1], k[Words-2] = ^uint64(0), ^uint64(0)
		case 2:
			k = Key{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}
		}
		n := uint(r.Intn(MaxBits))
		want := new(big.Int).Add(toBig(k), new(big.Int).Lsh(big.NewInt(1), n))
		want.Mod(want, mod)
		if got := toBig(k.AddPow2(n)); got.Cmp(want) != 0 {
			t.Fatalf("AddPow2(%v, %d) = %v, want %v", k, n, got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("AddPow2(MaxBits) did not panic")
		}
	}()
	Zero.AddPow2(MaxBits)
}

func TestAddSubAgainstBig(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	mod := new(big.Int).Lsh(big.NewInt(1), MaxBits)
	for i := 0; i < 500; i++ {
		a, b := randKey(r), randKey(r)
		sum := new(big.Int).Add(toBig(a), toBig(b))
		sum.Mod(sum, mod)
		if got := toBig(a.Add(b)); got.Cmp(sum) != 0 {
			t.Fatalf("Add mismatch")
		}
		diff := new(big.Int).Sub(toBig(a), toBig(b))
		diff.Mod(diff, mod)
		if diff.Sign() < 0 {
			diff.Add(diff, mod)
		}
		if got := toBig(a.Sub(b)); got.Cmp(diff) != 0 {
			t.Fatalf("Sub mismatch")
		}
	}
}

// TestBitSetBit reads every bit of random keys with Bit and checks it
// against math/big's Bit.
func TestBitSetBit(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for n := 0; n < 50; n++ {
		k := randKey(r)
		b := toBig(k)
		for i := uint(0); i < MaxBits; i++ {
			if got, want := k.Bit(i), uint64(b.Bit(int(i))); got != want {
				t.Fatalf("Bit(%d) of %v = %d, want %d", i, k, got, want)
			}
		}
	}
}

func TestBitPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	Zero.Bit(MaxBits)
}

func TestBytesRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for n := 1; n <= 32; n++ {
		k := randKey(r)
		// Mask to n bytes.
		if n < 32 {
			k = k.Shl(uint(256 - 8*n)).Shr(uint(256 - 8*n))
		}
		buf := make([]byte, n)
		k.PutBytes(buf, n)
		if got := FromBytes(buf, n); got != k {
			t.Fatalf("round trip n=%d: got %v want %v", n, got, k)
		}
	}
}

func TestBytesOrderingMatchesKeyOrdering(t *testing.T) {
	// Big-endian byte comparison must agree with numeric comparison;
	// the store relies on this when binary-searching serialized keys.
	f := func(aw, bw [Words]uint64) bool {
		a, b := Key(aw), Key(bw)
		var ab, bb [32]byte
		a.PutBytes(ab[:], 32)
		b.PutBytes(bb[:], 32)
		byteCmp := 0
		for i := range ab {
			if ab[i] != bb[i] {
				if ab[i] < bb[i] {
					byteCmp = -1
				} else {
					byteCmp = 1
				}
				break
			}
		}
		return byteCmp == a.Cmp(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestIncString(t *testing.T) {
	k := FromUint64(^uint64(0))
	k = k.Inc()
	if k.Uint64() != 0 || k[Words-2] != 1 {
		t.Fatalf("carry propagation failed: %v", k)
	}
	if s := FromUint64(255).String(); s != "0xff" {
		t.Fatalf("String = %q", s)
	}
	if s := Zero.String(); s != "0x0" {
		t.Fatalf("String(0) = %q", s)
	}
}
