package store

import (
	"s3cbcd/internal/bitkey"
	"s3cbcd/internal/hilbert"
)

// RecordView is one record surfaced by a RecordSource visit: a row's
// fields decoded into a value struct, so refinement code is independent
// of whether the record sits in RAM (DB) or was just read from disk
// (ColdFile). FP aliases the source's buffer and is valid only
// for the duration of the callback; callers keeping a fingerprint must
// copy it. The limit is load-bearing: a cold block's buffer is recycled
// once its visit ends, so a retained FP is overwritten by a later block.
type RecordView struct {
	// Pos is the record's global index in its source (the position a DB
	// or a whole database file assigns it).
	Pos int
	// Key is the record's Hilbert key.
	Key bitkey.Key
	// FP is the fingerprint; valid only during the callback (a cold
	// source reuses the bytes for another block afterwards).
	FP []byte
	// ID and TC are the video identifier and time code.
	ID, TC uint32
	// X and Y are the stored interest point position.
	X, Y uint16
}

// RecordSource is the seam refinement visits records through: the
// in-memory DB and the disk-backed ColdFile both satisfy it, which is
// what lets one refine implementation serve resident and cold segments
// alike. Visits over a curve interval set deliver records in the
// canonical stored order (ascending record index); a source backed by
// fallible I/O reports read failures through the returned error. A
// visitor keeps nothing a view aliases past its callback — ColdFile
// relies on that to hand a visited block's buffer to the next miss.
type RecordSource interface {
	// Curve returns the Hilbert curve the records are ordered by.
	Curve() *hilbert.Curve
	// Len returns the number of records.
	Len() int
	// VisitIntervals calls visit for every record whose key falls in one
	// of the half-open curve intervals. ivs must be sorted by Start and
	// non-overlapping (hilbert.MergeIntervals output qualifies). The
	// visit order is ascending record index; returning false stops the
	// visit early (no error). The error is nil unless the source failed
	// to produce a record — an in-memory DB never fails.
	VisitIntervals(ivs []hilbert.Interval, visit func(RecordView) bool) error
}

// LeanSource is an optional RecordSource refinement for visitors that
// never read fingerprints (statistical refinement: the curve region IS
// the answer). Views are delivered exactly as VisitIntervals would,
// except FP is nil; a source holding a fingerprint-free record layout
// (a codec-bearing ColdFile's lean area) serves it at a fraction of the
// exact bytes.
type LeanSource interface {
	RecordSource
	VisitIntervalsLean(ivs []hilbert.Interval, visit func(RecordView) bool) error
}

// FilteredSource is an optional RecordSource refinement for distance
// predicates: visit every record of the intervals whose exact squared L2
// distance to qf could be at most boundSq, with its exact fingerprint.
// The filter is conservative — records beyond boundSq may also be
// visited, so callers must keep their exact distance check — but every
// record within boundSq is guaranteed to be visited. A quantized source
// rejects most candidates without touching exact record bytes.
type FilteredSource interface {
	RecordSource
	VisitIntervalsFiltered(ivs []hilbert.Interval, qf []float64, boundSq float64,
		visit func(RecordView) bool) error
}

var (
	_ RecordSource   = (*DB)(nil)
	_ RecordSource   = (*ColdFile)(nil)
	_ LeanSource     = (*ColdFile)(nil)
	_ FilteredSource = (*ColdFile)(nil)
)

// VisitIntervals implements RecordSource over the rows in memory with
// the span walk a cold block's visit uses. It never returns a non-nil
// error.
func (db *DB) VisitIntervals(ivs []hilbert.Interval, visit func(RecordView) bool) error {
	db.selected(ivs, func(i int) bool { return visit(db.view(i)) })
	return nil
}

// selected calls fn with the chunk-local index of every row the
// intervals select, ascending; it reports false once fn does. Intervals
// are sorted and disjoint, so each search resumes where the previous one
// ended.
func (c *Chunk) selected(ivs []hilbert.Interval, fn func(i int) bool) bool {
	from := 0
	for _, iv := range ivs {
		lo, hi := c.FindIntervalFrom(from, iv)
		for i := lo; i < hi; i++ {
			if !fn(i) {
				return false
			}
		}
		from = hi
	}
	return true
}
