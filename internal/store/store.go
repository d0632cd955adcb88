// Package store holds the fingerprint reference database of the S³
// system. As in the paper (Section IV), the database is *static*: records
// are physically ordered by the position of their fingerprint on the
// Hilbert curve, so a curve interval is a contiguous record range found by
// binary search. A binary file format with a curve-section table supports
// the pseudo-disk strategy of Section IV-B, where a database larger than
// main memory is loaded cyclically in 2^r sections.
package store

import (
	"bytes"
	"fmt"
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

// DB is an in-memory, curve-ordered fingerprint database. Storage is
// columnar: one flat byte slice for fingerprints plus parallel key, id and
// time-code slices. A DB is immutable after Build and safe for concurrent
// readers.
type DB struct {
	curve *hilbert.Curve
	keys  []bitkey.Key
	fps   []byte // len = Len() * Dims()
	ids   []uint32
	tcs   []uint32
	xs    []uint16
	ys    []uint16
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
	db := newDB(curve, len(recs))
	for i, kr := range keyedRecs {
		r := recs[kr.idx]
		db.keys[i] = kr.key
		copy(db.fps[i*dims:], r.FP)
		db.ids[i] = r.ID
		db.tcs[i] = r.TC
		db.xs[i] = r.X
		db.ys[i] = r.Y
	}
	return db, nil
}

// newDB returns a database of n zero records for the caller to fill.
func newDB(curve *hilbert.Curve, n int) *DB {
	return &DB{
		curve: curve,
		keys:  make([]bitkey.Key, n),
		fps:   make([]byte, n*curve.Dims()),
		ids:   make([]uint32, n),
		tcs:   make([]uint32, n),
		xs:    make([]uint16, n),
		ys:    make([]uint16, n),
	}
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

// Len returns the number of records.
func (db *DB) Len() int { return len(db.keys) }

// Key returns the Hilbert key of record i.
func (db *DB) Key(i int) bitkey.Key { return db.keys[i] }

// FP returns a read-only view of the fingerprint of record i.
func (db *DB) FP(i int) []byte {
	d := db.Dims()
	return db.fps[i*d : (i+1)*d : (i+1)*d]
}

// ID returns the video identifier of record i.
func (db *DB) ID(i int) uint32 { return db.ids[i] }

// TC returns the time code of record i.
func (db *DB) TC(i int) uint32 { return db.tcs[i] }

// X returns the interest point x position of record i (0 when unknown).
func (db *DB) X(i int) uint16 { return db.xs[i] }

// Y returns the interest point y position of record i (0 when unknown).
func (db *DB) Y(i int) uint16 { return db.ys[i] }

// FindInterval returns the record index range [lo, hi) whose keys fall in
// the half-open curve interval iv.
func (db *DB) FindInterval(iv hilbert.Interval) (lo, hi int) {
	return findInterval(db.keys, 0, iv)
}

// FindIntervalFrom is FindInterval for a caller that knows no key before
// record from falls in iv — the previous interval's hi, when walking the
// sorted, disjoint intervals of a plan.
func (db *DB) FindIntervalFrom(from int, iv hilbert.Interval) (lo, hi int) {
	return findInterval(db.keys, from, iv)
}

// findInterval returns the index range of the sorted keys that falls in
// iv. Start is binary-searched in [from, len). End is galloped for from
// lo: the range a plan interval selects is a handful of records, so its
// end is a few probes into the cache lines the start search just
// touched, not another full-length search.
func findInterval(keys []bitkey.Key, from int, iv hilbert.Interval) (lo, hi int) {
	lo = lowerBound(keys, from, len(keys), iv.Start)
	first, bound := lo, lo // every key before first is below End
	for step := 1; bound < len(keys) && keys[bound].Less(iv.End); step <<= 1 {
		first, bound = bound+1, bound+step
	}
	return lo, lowerBound(keys, first, min(bound, len(keys)), iv.End)
}

// lowerBound returns the first index in [lo, hi] whose key is not below
// k, or hi.
func lowerBound(keys []bitkey.Key, lo, hi int, k bitkey.Key) int {
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); keys[mid].Less(k) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// FindIntervalFrom is DB.FindIntervalFrom on the stored keys in place:
// the bounds are serialized to key bytes and compared with the row
// prefixes bytewise — keys are stored big-endian, so byte order is key
// order — and no record is decoded. A bound too large for the key width
// (the one-past-the-curve key) lies past every stored key: such an End
// selects to the end of the chunk, such a Start nothing.
func (c *Chunk) FindIntervalFrom(from int, iv hilbert.Interval) (lo, hi int) {
	n := c.Len()
	if iv.Start.BitLen() > 8*c.kb {
		return n, n
	}
	var start, end [bitkey.MaxBits / 8]byte
	iv.Start.PutBytes(start[:], c.kb)
	lo = c.lowerBound(from, n, start[:c.kb])
	if iv.End.BitLen() > 8*c.kb {
		return lo, n
	}
	iv.End.PutBytes(end[:], c.kb)
	first, bound := lo, lo // every key before first is below End
	for step := 1; bound < n && bytes.Compare(c.row(bound)[:c.kb], end[:c.kb]) < 0; step <<= 1 {
		first, bound = bound+1, bound+step
	}
	return lo, c.lowerBound(first, min(bound, n), end[:c.kb])
}

// lowerBound returns the first row in [lo, hi] whose stored key is not
// below k, or hi.
func (c *Chunk) lowerBound(lo, hi int, k []byte) int {
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); bytes.Compare(c.row(mid)[:c.kb], k) < 0 {
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
	pos := 0
	for s := 0; s < n; s++ {
		end := bitkey.FromUint64(uint64(s) + 1).Shl(shift)
		for pos < len(db.keys) && db.keys[pos].Less(end) {
			pos++
		}
		starts[s+1] = pos
	}
	return starts
}
