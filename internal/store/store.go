// Package store holds the fingerprint reference database of the S³
// system. As in the paper (Section IV), the database is *static*: records
// are physically ordered by the position of their fingerprint on the
// Hilbert curve, so a curve interval is a contiguous record range found by
// binary search. A binary file format with a curve-section table supports
// the pseudo-disk strategy of Section IV-B, where a database larger than
// main memory is loaded cyclically in 2^r sections.
package store

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"

	"s3cbcd/internal/bitkey"
	"s3cbcd/internal/hilbert"
)

// Record is one referenced local fingerprint: the descriptor, the video
// sequence identifier Id and the time code tc (Section III). X and Y hold
// the interest point position in the key-frame (rounded to integer
// pixels); they are optional — zero when the producer does not track
// positions — and feed the spatially-extended voting strategy the paper's
// conclusion proposes.
type Record struct {
	FP   []byte
	ID   uint32
	TC   uint32
	X, Y uint16
}

// DB is an in-memory, curve-ordered fingerprint database held as the
// exact record area of a format-v2 file: one row buffer of key,
// fingerprint, id, tc, x and y per record (see file.go), so writing it is
// one copy and loading it one read. It is a Chunk whose record 0 is the
// database's (Base() is 0) plus the curve; its accessors and run
// searches are the Chunk's. A DB is immutable after Build and safe for
// concurrent readers.
type DB struct {
	Chunk
	curve *hilbert.Curve
}

// Build computes the Hilbert key of every record, sorts by key and
// returns the database. Records must all have len(FP) == curve.Dims() and
// components below 2^K; Build returns an error otherwise. The input slice
// is not modified.
//
// Records sharing a Hilbert key (hence an identical fingerprint — the
// curve encoding is a bijection) are ordered canonically by (ID, TC, X,
// Y). This total order makes the stored sequence a function of the record
// multiset alone: a database built in one shot and one assembled by
// merging arbitrary sorted pieces (Merge) hold their records in exactly
// the same order, which is what lets a segmented live index prove its
// results identical to an offline rebuild.
func Build(curve *hilbert.Curve, recs []Record) (*DB, error) {
	dims := curve.Dims()
	side := uint32(curve.SideLen())
	type keyed struct {
		key bitkey.Key
		idx int
	}
	keyedRecs := make([]keyed, len(recs))
	pt := make([]uint32, dims)
	for i, r := range recs {
		if len(r.FP) != dims {
			return nil, fmt.Errorf("store: record %d has %d components, want %d", i, len(r.FP), dims)
		}
		for j, b := range r.FP {
			v := uint32(b)
			if v >= side {
				return nil, fmt.Errorf("store: record %d component %d = %d exceeds grid side %d", i, j, v, side)
			}
			pt[j] = v
		}
		keyedRecs[i] = keyed{key: curve.Encode(pt), idx: i}
	}
	sort.Slice(keyedRecs, func(a, b int) bool {
		if c := keyedRecs[a].key.Cmp(keyedRecs[b].key); c != 0 {
			return c < 0
		}
		return recordLess(&recs[keyedRecs[a].idx], &recs[keyedRecs[b].idx])
	})
	db := newDB(curve, make([]byte, len(recs)*recordSize(curve, fileVersionV2)))
	for i, kr := range keyedRecs {
		r := &recs[kr.idx]
		row := db.row(i)
		kr.key.PutBytes(row, db.kb)
		copy(row[db.kb:], r.FP)
		tail := db.tail(i)
		binary.LittleEndian.PutUint32(tail, r.ID)
		binary.LittleEndian.PutUint32(tail[4:], r.TC)
		binary.LittleEndian.PutUint16(tail[8:], r.X)
		binary.LittleEndian.PutUint16(tail[10:], r.Y)
	}
	return db, nil
}

// newDB returns the database whose rows are buf, laid out like the exact
// record area of format version 2.
func newDB(curve *hilbert.Curve, buf []byte) *DB {
	return &DB{curve: curve, Chunk: Chunk{buf: buf, stride: recordSize(curve, fileVersionV2),
		kb: keyBytes(curve), dims: curve.Dims(), xy: true}}
}

// recordLess is the canonical tie-break among records with equal Hilbert
// keys: (ID, TC, X, Y) lexicographically.
func recordLess(a, b *Record) bool {
	if a.ID != b.ID {
		return a.ID < b.ID
	}
	if a.TC != b.TC {
		return a.TC < b.TC
	}
	if a.X != b.X {
		return a.X < b.X
	}
	return a.Y < b.Y
}

// MustBuild is Build, panicking on error. For static test fixtures.
func MustBuild(curve *hilbert.Curve, recs []Record) *DB {
	db, err := Build(curve, recs)
	if err != nil {
		panic(err)
	}
	return db
}

// Curve returns the Hilbert curve the database is ordered by.
func (db *DB) Curve() *hilbert.Curve { return db.curve }

// Dims returns the fingerprint dimension.
func (db *DB) Dims() int { return db.curve.Dims() }

// rowKey is a search bound in the form a row's stored key compares in:
// big-endian 64-bit words over the key bytes. Keys are stored
// big-endian, so word order is key order. The last word may run past the
// key into the bytes that follow it; a row is at least 8 bytes longer
// than its key, so the load stays in the buffer. The bound pads with
// zeros, which no stored byte is below, so a row never reads below a
// bound its key equals: all a search asks. Two rows are not compared
// this way, since the bytes past their keys may differ.
type rowKey struct {
	w    bitkey.Key // w[j] compares with the row's bytes [8j, 8j+8)
	last int        // index of the last word holding key bytes
}

// blockBound returns the first key of block b, b·2^shift, as a search
// bound over the chunk's rows, or false when that key is too wide for the
// stored key width — past every stored key (the end of the curve may
// be). The bound is the key shifted left by the bits the key width
// leaves unused.
func (c *Chunk) blockBound(b uint64, shift uint) (rowKey, bool) {
	if bits.Len64(b)+int(shift) > 8*c.kb {
		return rowKey{}, false
	}
	return rowKey{w: bitkey.FromUint64(b).Shl(shift + uint(bitkey.MaxBits-8*c.kb)), last: (c.kb+7)/8 - 1}, true
}

// below reports whether the stored key of chunk-local record i is below
// k. The first differing word decides.
func (c *Chunk) below(i int, k *rowKey) bool {
	row := c.buf[i*c.stride:]
	for j := 0; j < k.last; j++ {
		if a := binary.BigEndian.Uint64(row[8*j:]); a != k.w[j] {
			return a < k.w[j]
		}
	}
	return binary.BigEndian.Uint64(row[8*k.last:]) < k.w[k.last]
}

// FindRun returns the chunk-local row range whose keys fall in the
// blocks of r, where a block spans 2^shift curve indices (shift is
// K·D − p for a run at depth p). The caller knows no key before row
// from falls in r — the previous run's hi, when walking the sorted,
// disjoint runs of a plan. The start is binary-searched in [from, Len).
// The end is galloped for from lo: the range a run selects is a handful
// of records, so its end is a few probes into the rows the start search
// just touched, not another full-length search. Keys are compared in
// place as words and no record is decoded. A bound too wide for the
// stored key width lies past every stored key: such an end selects to
// the end of the chunk, such a start nothing.
func (c *Chunk) FindRun(from int, r hilbert.Run, shift uint) (lo, hi int) {
	n := c.Len()
	start, ok := c.blockBound(r.Lo, shift)
	if !ok {
		return n, n
	}
	lo = c.lowerBound(from, n, &start)
	end, ok := c.blockBound(r.Hi, shift)
	if !ok {
		return lo, n
	}
	return lo, c.gallop(lo, &end)
}

// gallop returns the first row at or after from whose stored key is not
// below k, or Len, probing at doubling distances before the binary
// search: cheap when the answer is near from.
func (c *Chunk) gallop(from int, k *rowKey) int {
	n := c.Len()
	first, bound := from, from // every key before first is below k
	for step := 1; bound < n && c.below(bound, k); step <<= 1 {
		first, bound = bound+1, bound+step
	}
	return c.lowerBound(first, min(bound, n), k)
}

// lowerBound returns the first row in [lo, hi] whose stored key is not
// below k, or hi. The first key word decides almost every probe, so it
// is compared here, inline, and below reads on only after a tie: calling
// below for every probe cost 5–6 % of the benchmark's search throughput.
func (c *Chunk) lowerBound(lo, hi int, k *rowKey) int {
	w0 := k.w[0]
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		a := binary.BigEndian.Uint64(c.buf[mid*c.stride:])
		if a < w0 || a == w0 && c.below(mid, k) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// SectionStarts returns, for a partition of the curve into 2^bits equal
// sections, the record index at which each section starts, plus a final
// entry equal to Len(). This is the "simple index table" of Section IV.
func (db *DB) SectionStarts(bits int) []int {
	n := 1 << uint(bits)
	starts := make([]int, n+1)
	shift := uint(db.curve.IndexBits() - bits)
	for s := 1; s < n; s++ {
		// s<<shift is below 2^IndexBits, so it fits the stored key width.
		start, _ := db.blockBound(uint64(s), shift)
		starts[s] = db.gallop(starts[s-1], &start)
	}
	starts[n] = db.Len()
	return starts
}
