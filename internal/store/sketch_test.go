package store

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"s3cbcd/internal/bitkey"
	"s3cbcd/internal/hilbert"
)

func distSqBytes(qf []float64, fp []byte) float64 {
	s := 0.0
	for j, q := range qf {
		d := q - float64(fp[j])
		s += d * d
	}
	return s
}

// TestSketchNeverFalseNegative is the soundness property the skip
// decision rests on: whenever a stored key lies inside an interval set,
// MayIntersect MUST say true. A false positive only wastes a visit; a
// false negative would silently drop answers, so this is exhaustive over
// many random databases, granularities and interval sets. Seeds 8 on
// take wide keys, where a block index is read from the first word of a
// key of 9, 20 or 32 bytes with 7, 0 and 1 pad bits.
func TestSketchNeverFalseNegative(t *testing.T) {
	wide := []struct{ dims, order int }{{13, 5}, {20, 8}, {51, 5}}
	for seed := int64(0); seed < 8+int64(len(wide)); seed++ {
		r := rand.New(rand.NewSource(seed))
		curve := hilbert.MustNew(4+int(seed%3), 3+int(seed%2))
		if seed >= 8 {
			curve = hilbert.MustNew(wide[seed-8].dims, wide[seed-8].order)
		}
		db := MustBuild(curve, randRecords(r, curve, 1+r.Intn(300)))
		for _, bits := range []int{0, 1, 4, curve.IndexBits()} {
			sk := db.BuildSketch(bits)
			for trial := 0; trial < 60; trial++ {
				var ivs []hilbert.Interval
				if seed < 8 {
					ivs = randIntervals(r, curve, 1+r.Intn(5))
				} else {
					ivs = dyadicIntervals(r, db, 1+r.Intn(5))
				}
				occupied := false
				for i := 0; i < db.Len() && !occupied; i++ {
					k := db.Key(i)
					for _, iv := range ivs {
						if !k.Less(iv.Start) && k.Less(iv.End) {
							occupied = true
							break
						}
					}
				}
				if occupied && !sk.MayIntersect(ivs) {
					t.Fatalf("seed %d bits %d trial %d: sketch denies an occupied interval set",
						seed, bits, trial)
				}
			}
		}
	}
}

// dyadicIntervals returns up to n sorted, merged curve blocks of random
// size, each around a stored key of db or the same key with its top bit
// flipped (a block that may be empty), for curves too wide for
// randIntervals.
func dyadicIntervals(r *rand.Rand, db *DB, n int) []hilbert.Interval {
	bits := uint(db.Curve().IndexBits())
	ivs := make([]hilbert.Interval, 0, n)
	for i := 0; i < n; i++ {
		k := db.Key(r.Intn(db.Len()))
		if r.Intn(2) == 0 {
			k = k.Xor(bitkey.FromUint64(1).Shl(bits - 1))
		}
		j := uint(r.Intn(int(bits)))
		start := k.Shr(j).Shl(j)
		ivs = append(ivs, hilbert.Interval{Start: start, End: start.AddPow2(j)})
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].Start.Less(ivs[b].Start) })
	return hilbert.MergeIntervals(ivs)
}

// TestSketchSkipsEmptyRanges: the sketch must actually skip — probing the
// gap beyond a database confined to a narrow key range must come back
// negative (this is the >0 utility check, not a soundness requirement).
func TestSketchSkipsEmptyRanges(t *testing.T) {
	curve := hilbert.MustNew(6, 4)
	r := rand.New(rand.NewSource(5))
	// Confine records to the bottom 1/16 of the curve by zeroing the top
	// component bits of random fingerprints' keys: easiest via rebuilding
	// from records whose key happens to land low. Instead, just take a
	// random db and probe single blocks it provably misses.
	db := MustBuild(curve, randRecords(r, curve, 64))
	sk := db.BuildSketch(0)
	skips := 0
	for trial := 0; trial < 200; trial++ {
		ivs := randIntervals(r, curve, 1)
		occupied := false
		for i := 0; i < db.Len() && !occupied; i++ {
			k := db.Key(i)
			occupied = !k.Less(ivs[0].Start) && k.Less(ivs[0].End)
		}
		if !occupied && !sk.MayIntersect(ivs) {
			skips++
		}
	}
	if skips == 0 {
		t.Fatal("sketch never skipped an empty interval in 200 trials")
	}
	if rate := sk.EstimatedSkipRate(4096); rate <= 0 || rate > 1 {
		t.Fatalf("EstimatedSkipRate = %v outside (0, 1]", rate)
	}
}

// TestSketchEnvelopeIsLowerBound: the component envelope's distance to a
// query point never exceeds the distance to any stored fingerprint.
func TestSketchEnvelopeIsLowerBound(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	curve := hilbert.MustNew(6, 4)
	db := MustBuild(curve, randRecords(r, curve, 200))
	sk := db.BuildSketch(0)
	for trial := 0; trial < 100; trial++ {
		qf := make([]float64, curve.Dims())
		for j := range qf {
			qf[j] = r.Float64() * 16
		}
		env := sk.EnvelopeMinDistSq(qf)
		for i := 0; i < db.Len(); i++ {
			if d := distSqBytes(qf, db.FP(i)); env > d+1e-9 {
				t.Fatalf("trial %d: envelope bound %v exceeds exact %v at record %d",
					trial, env, d, i)
			}
		}
	}
	// An empty database's envelope excludes everything.
	empty := MustBuild(curve, nil)
	if got := empty.BuildSketch(0).EnvelopeMinDistSq(make([]float64, curve.Dims())); !math.IsInf(got, 1) {
		t.Fatalf("empty envelope distance = %v, want +Inf", got)
	}
}

// TestQuantizerLowerBound: for every record and query, the quantized
// bound never exceeds the exact squared distance — Exceeds(code, d) with
// d the exact distance must be false, so a rejected candidate provably
// lies outside the radius.
func TestQuantizerLowerBound(t *testing.T) {
	for _, bits := range []int{1, 2, 4, 8} {
		r := rand.New(rand.NewSource(int64(100 + bits)))
		curve := hilbert.MustNew(6, 4)
		db := MustBuild(curve, randRecords(r, curve, 300))
		qz, err := buildQuantizer(db, bits)
		if err != nil {
			t.Fatal(err)
		}
		code := make([]byte, qz.CodeBytes(curve.Dims()))
		for trial := 0; trial < 40; trial++ {
			qf := make([]float64, curve.Dims())
			for j := range qf {
				qf[j] = r.Float64() * 16
			}
			lb := qz.NewLowerBounder(qf)
			for i := 0; i < db.Len(); i++ {
				for j := range code {
					code[j] = 0
				}
				qz.encode(db.FP(i), code)
				d := distSqBytes(qf, db.FP(i))
				if lb.Exceeds(code, d) {
					t.Fatalf("bits %d trial %d: quantized bound exceeds exact distance %v at record %d",
						bits, trial, d, i)
				}
				// And the contrapositive the filter uses: Exceeds at a random
				// radius implies the exact distance is beyond it.
				boundSq := r.Float64() * 400
				if lb.Exceeds(code, boundSq) && d <= boundSq {
					t.Fatalf("bits %d: record %d rejected at radius² %v but exact %v is inside",
						bits, i, boundSq, d)
				}
			}
		}
	}
}

// TestSketchRoundTrip: appendTo → decodeSketch is an identity on every
// decision the sketch makes.
func TestSketchRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	curve := hilbert.MustNew(5, 4)
	db := MustBuild(curve, randRecords(r, curve, 150))
	sk := db.BuildSketch(0)
	blob := sk.appendTo(nil)
	if len(blob) != sk.EncodedSize() {
		t.Fatalf("encoded %d bytes, EncodedSize says %d", len(blob), sk.EncodedSize())
	}
	got, used, err := decodeSketch(blob, curve)
	if err != nil {
		t.Fatal(err)
	}
	if used != len(blob) {
		t.Fatalf("decode consumed %d of %d bytes", used, len(blob))
	}
	if got.Bits() != sk.Bits() || got.Blocks() != sk.Blocks() || got.Hashes() != sk.Hashes() ||
		got.FilterBits() != sk.FilterBits() {
		t.Fatalf("decoded shape %+v differs from built %+v", got, sk)
	}
	for trial := 0; trial < 100; trial++ {
		ivs := randIntervals(r, curve, 1+r.Intn(4))
		if got.MayIntersect(ivs) != sk.MayIntersect(ivs) {
			t.Fatalf("trial %d: decoded sketch disagrees with built sketch", trial)
		}
	}
	qf := make([]float64, curve.Dims())
	for j := range qf {
		qf[j] = r.Float64() * 16
	}
	if got.EnvelopeMinDistSq(qf) != sk.EnvelopeMinDistSq(qf) {
		t.Fatal("decoded envelope differs from built envelope")
	}
}

// TestQuantizerRoundTrip: appendTo → decodeQuantizer preserves every
// boundary, hence every code and bound.
func TestQuantizerRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	curve := hilbert.MustNew(6, 4)
	db := MustBuild(curve, randRecords(r, curve, 200))
	qz, err := buildQuantizer(db, DefaultCodecBits)
	if err != nil {
		t.Fatal(err)
	}
	blob := qz.appendTo(nil)
	if len(blob) != qz.EncodedSize() {
		t.Fatalf("encoded %d bytes, EncodedSize says %d", len(blob), qz.EncodedSize())
	}
	got, used, err := decodeQuantizer(blob, curve.Dims())
	if err != nil {
		t.Fatal(err)
	}
	if used != len(blob) || got.Bits() != qz.Bits() {
		t.Fatalf("decode consumed %d bytes, bits %d; want %d, %d", used, got.Bits(), len(blob), qz.Bits())
	}
	for j := range qz.bounds {
		for c := range qz.bounds[j] {
			if got.bounds[j][c] != qz.bounds[j][c] {
				t.Fatalf("boundary [%d][%d] = %d, want %d", j, c, got.bounds[j][c], qz.bounds[j][c])
			}
		}
	}
}

// FuzzSketchDecode feeds arbitrary bytes to the sketch and codec section
// parsers: they must never panic, never allocate past their hard caps,
// and anything accepted must be usable (probing and bounding must not
// crash). The v4-section twin of FuzzManifestDecode.
func FuzzSketchDecode(f *testing.F) {
	curve := hilbert.MustNew(5, 4)
	db := MustBuild(curve, randRecords(rand.New(rand.NewSource(17)), curve, 40))
	f.Add(db.BuildSketch(0).appendTo(nil))
	if qz, err := buildQuantizer(db, 4); err == nil {
		f.Add(qz.appendTo(nil))
	}
	f.Add([]byte{})
	f.Add(make([]byte, 16))
	f.Fuzz(func(t *testing.T, data []byte) {
		if sk, _, err := decodeSketch(data, curve); err == nil {
			ivs := randIntervals(rand.New(rand.NewSource(1)), curve, 2)
			_ = sk.MayIntersect(ivs)
			_ = sk.EnvelopeMinDistSq(make([]float64, curve.Dims()))
			_ = sk.FalsePositiveRate()
			_ = sk.EstimatedSkipRate(16)
		}
		if qz, _, err := decodeQuantizer(data, curve.Dims()); err == nil {
			lb := qz.NewLowerBounder(make([]float64, curve.Dims()))
			code := make([]byte, qz.CodeBytes(curve.Dims()))
			_ = lb.Exceeds(code, 1)
		}
	})
}
