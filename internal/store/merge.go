package store

import (
	"bytes"
	"fmt"
)

// checkIntegrity verifies that a database's row buffer holds whole rows
// of its curve's layout. A DB produced by Build, Merge, Filter or a file
// load always passes; a hand-assembled or corrupted one may not, and
// Merge used to propagate such malformed payloads silently whenever the
// other input was empty (the merge loop never touched the bad rows).
// Every merge input is validated up front instead.
func (db *DB) checkIntegrity() error {
	if db.curve == nil {
		return fmt.Errorf("store: database has no curve")
	}
	if size := recordSize(db.curve, fileVersionV2); len(db.buf)%size != 0 {
		return fmt.Errorf("store: database buffer length %d is not a multiple of the row size %d", len(db.buf), size)
	}
	return nil
}

// mergeLess reports whether record i of a orders before record j of b in
// the canonical order: Hilbert key first, ties broken like Build by
// (ID, TC, X, Y). Equal records order stably (a first).
func mergeLess(a *DB, i int, b *DB, j int) bool {
	if c := bytes.Compare(a.row(i)[:a.kb], b.row(j)[:b.kb]); c != 0 {
		return c < 0
	}
	if x, y := a.ID(i), b.ID(j); x != y {
		return x < y
	}
	if x, y := a.TC(i), b.TC(j); x != y {
		return x < y
	}
	if x, y := a.X(i), b.X(j); x != y {
		return x < y
	}
	return a.Y(i) <= b.Y(j)
}

// Merge combines two curve-ordered databases into one, preserving the
// canonical order with a linear merge. Both inputs must share the same
// curve geometry and pass the row integrity check. It is how an S³
// archive grows: index the new material separately, then merge — merging
// sorted runs is far cheaper than re-sorting everything, and because both
// Build and Merge use the same canonical total order, the result is
// record-for-record identical to one Build over the union.
func Merge(a, b *DB) (*DB, error) {
	if a.curve.Dims() != b.curve.Dims() || a.curve.Order() != b.curve.Order() {
		return nil, fmt.Errorf("store: merging incompatible curves (D=%d,K=%d vs D=%d,K=%d)",
			a.curve.Dims(), a.curve.Order(), b.curve.Dims(), b.curve.Order())
	}
	if err := a.checkIntegrity(); err != nil {
		return nil, fmt.Errorf("store: merge input a: %w", err)
	}
	if err := b.checkIntegrity(); err != nil {
		return nil, fmt.Errorf("store: merge input b: %w", err)
	}
	out := newDB(a.curve, make([]byte, 0, len(a.buf)+len(b.buf)))
	take := func(src *DB, i int) { out.buf = append(out.buf, src.row(i)...) }
	i, j := 0, 0
	for i < a.Len() && j < b.Len() {
		if mergeLess(a, i, b, j) {
			take(a, i)
			i++
		} else {
			take(b, j)
			j++
		}
	}
	for ; i < a.Len(); i++ {
		take(a, i)
	}
	for ; j < b.Len(); j++ {
		take(b, j)
	}
	return out, nil
}

// Filter returns a new database containing only the records the predicate
// keeps (called with each record's identifier and time code). Order is
// preserved, so no re-sort is needed. This is the withdrawal path of an
// archive: rebuild without the removed material.
func Filter(db *DB, keep func(id, tc uint32) bool) *DB {
	out := newDB(db.curve, nil)
	for i := 0; i < db.Len(); i++ {
		if keep(db.ID(i), db.TC(i)) {
			out.buf = append(out.buf, db.row(i)...)
		}
	}
	return out
}

// ContainsID reports whether any record carries the given video
// identifier (linear scan; used by tombstone bookkeeping).
func (db *DB) ContainsID(id uint32) bool {
	for i := 0; i < db.Len(); i++ {
		if db.ID(i) == id {
			return true
		}
	}
	return false
}

// CountID returns the number of records carrying the given identifier.
func (db *DB) CountID(id uint32) int {
	n := 0
	for i := 0; i < db.Len(); i++ {
		if db.ID(i) == id {
			n++
		}
	}
	return n
}
