package store

// Per-segment sketches: a compact summary of which stretches of the
// Hilbert curve a segment occupies, written into the segment file at
// seal/compaction time (format v4) and consulted before refinement so a
// plan whose block set provably misses the segment skips it — no block
// cache traffic, no RecordSource visit. Two structures compose:
//
//   - a Bloom filter over the occupied blocks of a 2^bits curve
//     partition (the paper's p-blocks at the live partition depth, so a
//     statistical plan's blocks map one-to-one onto filter probes), and
//   - a per-dimension min/max component envelope, a box bound that lets
//     geometric queries skip segments whose box lies beyond ε.
//
// Both are one-sided: a Bloom filter has false positives but never false
// negatives, and the envelope is a true bound, so "cannot intersect"
// decisions are always sound — a skipped segment provably contributes
// zero matches. This is the Bloom-region-skipping idea of Araujo et al.
// (Large-Scale Query-by-Image Video Retrieval Using Bloom Filters)
// applied to LSM segments of the S³ index.

import (
	"encoding/binary"
	"fmt"
	"math"

	"s3cbcd/internal/bitkey"
	"s3cbcd/internal/hilbert"
)

const (
	// maxSketchBits bounds the sketch's block granularity: block indices
	// must fit the low word of a key, and a finer partition than 2^28
	// blocks buys nothing a header could legitimately want (mirrors
	// maxSectionBits).
	maxSketchBits = 28
	// maxSketchHashes bounds the Bloom probe count a header may claim.
	maxSketchHashes = 16
	// maxSketchFilterBytes bounds the filter size a header may claim
	// (64 MiB — far past any real segment) so a corrupt length cannot
	// drive a huge allocation at open.
	maxSketchFilterBytes = 1 << 26
	// maxSketchProbes is the per-consultation probe budget: a query whose
	// intervals cover more blocks than this is served conservatively
	// (treated as intersecting) instead of burning CPU on probes.
	maxSketchProbes = 4096

	// sketchBitsPerBlock and sketchHashCount size the written filter:
	// ~10 bits and 6 probes per occupied block give a ~1% false-positive
	// rate, cheap next to the record area it guards.
	sketchBitsPerBlock = 10
	sketchHashCount    = 6
)

// Sketch is a segment's occupancy summary. The zero value is not valid;
// build one with DB.BuildSketch or decode one from a v4 file.
type Sketch struct {
	bits   int  // blocks are curve sections of a 2^bits partition
	shift  uint // curve index bits - bits
	hashes int
	blocks int // distinct occupied blocks at build time
	filter []byte
	// min and max bound every stored fingerprint component per dimension;
	// meaningful only when the segment holds records (blocks > 0).
	min, max []byte
}

// sketchMix is the splitmix64 finalizer: a cheap, well-distributed
// 64-bit mixer. Two independent mixes drive double hashing, the standard
// k-probe Bloom construction.
func sketchMix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// sketchBit returns the filter bit index of probe i for block b.
func (sk *Sketch) sketchBit(b uint64, i int) uint64 {
	h1 := sketchMix(b)
	h2 := sketchMix(b^0xa5a5a5a5a5a5a5a5) | 1
	return (h1 + uint64(i)*h2) % uint64(len(sk.filter)*8)
}

func (sk *Sketch) insertBlock(b uint64) {
	for i := 0; i < sk.hashes; i++ {
		bit := sk.sketchBit(b, i)
		sk.filter[bit/8] |= 1 << (bit % 8)
	}
}

func (sk *Sketch) mayHaveBlock(b uint64) bool {
	for i := 0; i < sk.hashes; i++ {
		bit := sk.sketchBit(b, i)
		if sk.filter[bit/8]&(1<<(bit%8)) == 0 {
			return false
		}
	}
	return true
}

// clampSketchBits normalizes a requested granularity against the curve:
// non-positive selects an automatic granularity of roughly four blocks
// per record (so average occupancy stays low and skips stay likely).
func clampSketchBits(curve *hilbert.Curve, bits, n int) int {
	if bits <= 0 {
		bits = 1
		for 1<<uint(bits) < 4*n && bits < maxSketchBits {
			bits++
		}
	}
	if bits > curve.IndexBits() {
		bits = curve.IndexBits()
	}
	if bits > maxSketchBits {
		bits = maxSketchBits
	}
	if bits < 1 {
		bits = 1
	}
	return bits
}

// BuildSketch summarizes the database's curve occupancy at a 2^bits
// block granularity (non-positive bits selects an automatic one). The
// live index passes its partition depth p, so statistical plan blocks
// map one-to-one onto filter probes.
func (db *DB) BuildSketch(bits int) *Sketch {
	curve := db.curve
	bits = clampSketchBits(curve, bits, db.Len())
	sk := &Sketch{
		bits:   bits,
		shift:  uint(curve.IndexBits() - bits),
		hashes: sketchHashCount,
	}
	// Keys are sorted, so distinct occupied blocks are transitions in the
	// block index sequence: one cheap pass counts them, a second inserts.
	// A block index is the top bits of the index, read from the first
	// word of the stored key past its pad of 8·keyBytes − IndexBits zero
	// bits; bits ≤ 28, so it lies inside that word.
	pad := uint(8*db.kb - curve.IndexBits())
	block := func(i int) uint64 {
		return binary.BigEndian.Uint64(db.row(i)) << pad >> (64 - uint(bits))
	}
	n := db.Len()
	var prev uint64
	for i := 0; i < n; i++ {
		b := block(i)
		if i == 0 || b != prev {
			sk.blocks++
			prev = b
		}
	}
	fbits := sk.blocks * sketchBitsPerBlock
	if fbits < 64 {
		fbits = 64
	}
	sk.filter = make([]byte, (fbits+7)/8)
	for i := 0; i < n; i++ {
		b := block(i)
		if i == 0 || b != prev {
			sk.insertBlock(b)
			prev = b
		}
	}
	dims := curve.Dims()
	sk.min = make([]byte, dims)
	sk.max = make([]byte, dims)
	for j := range sk.min {
		sk.min[j] = 0xff
	}
	for i := 0; i < n; i++ {
		fp := db.FP(i)
		for j, v := range fp {
			if v < sk.min[j] {
				sk.min[j] = v
			}
			if v > sk.max[j] {
				sk.max[j] = v
			}
		}
	}
	if n == 0 {
		for j := range sk.min {
			sk.min[j] = 0
		}
	}
	return sk
}

// Bits returns the block granularity exponent.
func (sk *Sketch) Bits() int { return sk.bits }

// Blocks returns the number of distinct occupied blocks at build time
// (the n of the Bloom false-positive estimate).
func (sk *Sketch) Blocks() int { return sk.blocks }

// Hashes returns the Bloom probe count.
func (sk *Sketch) Hashes() int { return sk.hashes }

// FilterBits returns the Bloom filter size in bits (the m of the
// false-positive estimate).
func (sk *Sketch) FilterBits() int { return len(sk.filter) * 8 }

// EncodedSize returns the sketch section's on-disk size in bytes.
func (sk *Sketch) EncodedSize() int { return 16 + len(sk.min) + len(sk.max) + len(sk.filter) }

// FalsePositiveRate estimates the Bloom filter's false-positive
// probability for a probe of one unoccupied block: (1 - e^{-kn/m})^k.
func (sk *Sketch) FalsePositiveRate() float64 {
	m := float64(sk.FilterBits())
	if m == 0 {
		return 1
	}
	k := float64(sk.hashes)
	return math.Pow(1-math.Exp(-k*float64(sk.blocks)/m), k)
}

// EstimatedSkipRate probes n deterministic pseudo-random blocks of the
// sketch's partition and returns the fraction proven unoccupied — an
// offline estimate of how often a uniformly random single-block plan
// would skip this segment. Deterministic: the same sketch always
// reports the same rate.
func (sk *Sketch) EstimatedSkipRate(probes int) float64 {
	if probes <= 0 {
		return 0
	}
	nb := uint64(1) << uint(sk.bits)
	skipped := 0
	for i := 0; i < probes; i++ {
		if !sk.mayHaveBlock(sketchMix(uint64(i)) % nb) {
			skipped++
		}
	}
	return float64(skipped) / float64(probes)
}

// mayIntersectRange reports whether any occupied block overlaps the
// half-open key range [start, end). budget bounds the total probes of
// one consultation; on exhaustion the answer is conservatively true.
func (sk *Sketch) mayIntersectRange(start, end bitkey.Key, budget *int) bool {
	if !start.Less(end) {
		return false
	}
	b := start.Shr(sk.shift).Uint64()
	nb := uint64(1) << uint(sk.bits)
	for b < nb {
		if *budget <= 0 {
			return true
		}
		*budget--
		if sk.mayHaveBlock(b) {
			return true
		}
		b++
		if !bitkey.FromUint64(b).Shl(sk.shift).Less(end) {
			break
		}
	}
	return false
}

// MayIntersect reports whether any occupied block overlaps any of the
// sorted, non-overlapping curve intervals. False is a proof: no stored
// key lies in any interval, so refinement over them yields nothing.
func (sk *Sketch) MayIntersect(ivs []hilbert.Interval) bool {
	budget := maxSketchProbes
	for _, iv := range ivs {
		if sk.mayIntersectRange(iv.Start, iv.End, &budget) {
			return true
		}
	}
	return false
}

// EnvelopeMinDistSq returns the squared L2 distance from the query point
// to the segment's component bounding box — a lower bound on the
// distance to every stored fingerprint. A segment with no records
// reports +Inf (no record can be within any radius).
func (sk *Sketch) EnvelopeMinDistSq(qf []float64) float64 {
	if sk.blocks == 0 {
		return math.Inf(1)
	}
	s := 0.0
	for j, q := range qf {
		if j >= len(sk.min) {
			break
		}
		if d := q - float64(sk.max[j]); d > 0 {
			s += d * d
		} else if d := float64(sk.min[j]) - q; d > 0 {
			s += d * d
		}
	}
	return s
}

// appendTo serializes the sketch section:
//
//	sbits   uint32
//	nhash   uint32
//	nblocks uint32
//	flen    uint32
//	min     dims bytes
//	max     dims bytes
//	filter  flen bytes
func (sk *Sketch) appendTo(buf []byte) []byte {
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(sk.bits))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(sk.hashes))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(sk.blocks))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(sk.filter)))
	buf = append(buf, hdr[:]...)
	buf = append(buf, sk.min...)
	buf = append(buf, sk.max...)
	buf = append(buf, sk.filter...)
	return buf
}

// decodeSketch parses a sketch section for a curve, validating every
// length against hard caps before trusting it (hostile headers must fail
// cleanly, never allocate unboundedly — the same discipline OpenFS
// applies to the section table). Returns the sketch and the number of
// bytes consumed.
func decodeSketch(data []byte, curve *hilbert.Curve) (*Sketch, int, error) {
	if len(data) < 16 {
		return nil, 0, fmt.Errorf("sketch section truncated (%d of 16 header bytes)", len(data))
	}
	bits := int(binary.LittleEndian.Uint32(data[0:]))
	hashes := int(binary.LittleEndian.Uint32(data[4:]))
	blocks64 := uint64(binary.LittleEndian.Uint32(data[8:]))
	flen := int64(binary.LittleEndian.Uint32(data[12:]))
	maxBits := curve.IndexBits()
	if maxBits > maxSketchBits {
		maxBits = maxSketchBits
	}
	if bits < 1 || bits > maxBits {
		return nil, 0, fmt.Errorf("sketch granularity 2^%d outside [2^1, 2^%d]", bits, maxBits)
	}
	if hashes < 1 || hashes > maxSketchHashes {
		return nil, 0, fmt.Errorf("sketch hash count %d outside [1, %d]", hashes, maxSketchHashes)
	}
	if blocks64 > uint64(1)<<uint(bits) {
		return nil, 0, fmt.Errorf("sketch claims %d occupied blocks of a 2^%d partition", blocks64, bits)
	}
	if flen < 1 || flen > maxSketchFilterBytes {
		return nil, 0, fmt.Errorf("sketch filter of %d bytes outside [1, %d]", flen, maxSketchFilterBytes)
	}
	dims := curve.Dims()
	size := 16 + 2*dims + int(flen)
	if len(data) < size {
		return nil, 0, fmt.Errorf("sketch section truncated (%d of %d bytes)", len(data), size)
	}
	sk := &Sketch{
		bits:   bits,
		shift:  uint(curve.IndexBits() - bits),
		hashes: hashes,
		blocks: int(blocks64),
		min:    append([]byte{}, data[16:16+dims]...),
		max:    append([]byte{}, data[16+dims:16+2*dims]...),
		filter: append([]byte{}, data[16+2*dims:size]...),
	}
	for j := 0; j < dims; j++ {
		if sk.blocks > 0 && sk.min[j] > sk.max[j] {
			return nil, 0, fmt.Errorf("sketch envelope inverted in dimension %d", j)
		}
	}
	return sk, size, nil
}
