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
	// the block runs at depth selects (a cold block touched by several
	// runs yields one span per run). runs must be sorted, disjoint and
	// inside [0, 2^depth), with depth in [1, min(K·D, hilbert.MaxDepth)]:
	// a plan's runs qualify. Returning false stops the visit early (no
	// error). The error is nil unless the source failed to produce a
	// record — an in-memory DB never fails.
	VisitIntervals(depth int, runs []hilbert.Run, visit func(c *Chunk, lo, hi int) bool) error
	// VisitIntervalsLean delivers the records VisitIntervals would, for
	// visitors that never read fingerprints (statistical refinement: the
	// curve region IS the answer). A source holding a fingerprint-free
	// record layout (a codec-bearing ColdFile's lean area) serves it at a
	// fraction of the exact bytes; c.FP may then be nil.
	VisitIntervalsLean(depth int, runs []hilbert.Run, visit func(c *Chunk, lo, hi int) bool) error
	// VisitIntervalsFiltered is for distance predicates: it delivers every
	// record of the runs whose exact squared L2 distance to qf could
	// be at most boundSq, with its exact fingerprint. The filter is
	// conservative — records beyond boundSq may also be delivered, so
	// callers keep their exact distance check. A quantized source rejects
	// most candidates without touching exact record bytes and delivers
	// each survivor as a one-row span.
	VisitIntervalsFiltered(depth int, runs []hilbert.Run, qf []float64, boundSq float64,
		visit func(c *Chunk, lo, hi int) bool) error
}

var (
	_ RecordSource = (*DB)(nil)
	_ RecordSource = (*ColdFile)(nil)
)

// VisitIntervals implements RecordSource over the rows in memory: one
// span per run, found by the run search a cold block's visit uses. It
// never returns a non-nil error.
func (db *DB) VisitIntervals(depth int, runs []hilbert.Run, visit func(c *Chunk, lo, hi int) bool) error {
	db.spans(uint(db.curve.IndexBits()-depth), runs, visit)
	return nil
}

// VisitIntervalsLean implements RecordSource: the DB holds one layout, so
// this is VisitIntervals.
func (db *DB) VisitIntervalsLean(depth int, runs []hilbert.Run, visit func(c *Chunk, lo, hi int) bool) error {
	return db.VisitIntervals(depth, runs, visit)
}

// VisitIntervalsFiltered implements RecordSource by visiting every
// record of the runs: the filter may over-visit, and reading the
// resident rows costs no I/O to save.
func (db *DB) VisitIntervalsFiltered(depth int, runs []hilbert.Run, _ []float64, _ float64,
	visit func(c *Chunk, lo, hi int) bool) error {
	return db.VisitIntervals(depth, runs, visit)
}

// spans calls visit with every non-empty run of rows the block runs
// select, blocks spanning 2^shift curve indices, ascending; it reports
// false once visit does. Runs are sorted and disjoint, so each search
// resumes where the previous one ended.
func (c *Chunk) spans(shift uint, runs []hilbert.Run, visit func(c *Chunk, lo, hi int) bool) bool {
	from := 0
	for _, r := range runs {
		lo, hi := c.FindRun(from, r, shift)
		if lo < hi && !visit(c, lo, hi) {
			return false
		}
		from = hi
	}
	return true
}
