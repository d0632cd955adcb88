package store

import (
	"s3cbcd/internal/hilbert"
)

// RecordSource is the seam refinement visits records through: the
// in-memory DB and the disk-backed ColdFile both satisfy it, which is
// what lets one refine implementation serve resident and cold segments
// alike. A visit hands its callback row spans: a chunk c and a
// chunk-local row range [lo, hi), whose record i is record c.Base()+i of
// the source. Visits over a curve interval set deliver spans in the
// canonical stored order (ascending record index); a source backed by
// fallible I/O reports read failures through the returned error. A
// visitor keeps nothing read from c past its callback — ColdFile relies
// on that to hand a visited block's buffer to the next miss.
type RecordSource interface {
	// Curve returns the Hilbert curve the records are ordered by.
	Curve() *hilbert.Curve
	// Len returns the number of records.
	Len() int
	// VisitIntervals calls visit once per non-empty run of rows one of
	// the half-open curve intervals selects (a cold block touched by
	// several intervals yields one span per interval). ivs must be sorted
	// by Start and non-overlapping (hilbert.MergeIntervals output
	// qualifies). Returning false stops the visit early (no error). The
	// error is nil unless the source failed to produce a record — an
	// in-memory DB never fails.
	VisitIntervals(ivs []hilbert.Interval, visit func(c *Chunk, lo, hi int) bool) error
	// VisitIntervalsLean delivers the records VisitIntervals would, for
	// visitors that never read fingerprints (statistical refinement: the
	// curve region IS the answer). A source holding a fingerprint-free
	// record layout (a codec-bearing ColdFile's lean area) serves it at a
	// fraction of the exact bytes; c.FP may then be nil.
	VisitIntervalsLean(ivs []hilbert.Interval, visit func(c *Chunk, lo, hi int) bool) error
	// VisitIntervalsFiltered is for distance predicates: it delivers every
	// record of the intervals whose exact squared L2 distance to qf could
	// be at most boundSq, with its exact fingerprint. The filter is
	// conservative — records beyond boundSq may also be delivered, so
	// callers keep their exact distance check. A quantized source rejects
	// most candidates without touching exact record bytes and delivers
	// each survivor as a one-row span.
	VisitIntervalsFiltered(ivs []hilbert.Interval, qf []float64, boundSq float64,
		visit func(c *Chunk, lo, hi int) bool) error
}

var (
	_ RecordSource = (*DB)(nil)
	_ RecordSource = (*ColdFile)(nil)
)

// VisitIntervals implements RecordSource over the rows in memory: one
// span per interval, found by the interval search a cold block's visit
// uses. It never returns a non-nil error.
func (db *DB) VisitIntervals(ivs []hilbert.Interval, visit func(c *Chunk, lo, hi int) bool) error {
	db.spans(ivs, visit)
	return nil
}

// VisitIntervalsLean implements RecordSource: the DB holds one layout, so
// this is VisitIntervals.
func (db *DB) VisitIntervalsLean(ivs []hilbert.Interval, visit func(c *Chunk, lo, hi int) bool) error {
	db.spans(ivs, visit)
	return nil
}

// VisitIntervalsFiltered implements RecordSource by visiting every
// record of the intervals: the filter may over-visit, and reading the
// resident rows costs no I/O to save.
func (db *DB) VisitIntervalsFiltered(ivs []hilbert.Interval, _ []float64, _ float64,
	visit func(c *Chunk, lo, hi int) bool) error {
	db.spans(ivs, visit)
	return nil
}

// spans calls visit with every non-empty run of rows the intervals
// select, ascending; it reports false once visit does. Intervals are
// sorted and disjoint, so each search resumes where the previous one
// ended.
func (c *Chunk) spans(ivs []hilbert.Interval, visit func(c *Chunk, lo, hi int) bool) bool {
	from := 0
	for _, iv := range ivs {
		lo, hi := c.FindIntervalFrom(from, iv)
		if lo < hi && !visit(c, lo, hi) {
			return false
		}
		from = hi
	}
	return true
}
