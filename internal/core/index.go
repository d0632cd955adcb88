package core

import (
	"fmt"
	"math"
	"sync"

	"s3cbcd/internal/hilbert"
	"s3cbcd/internal/store"
)

// Planner holds what the filtering step needs: the curve geometry and the
// partition depth. Crucially it does not reference the record data, which
// is what allows the pseudo-disk strategy to filter a whole query batch
// before loading any database section (Section IV-B), and a router to
// plan for shards that hold the records. A Planner is safe for
// concurrent queries (SetDepth excluded).
type Planner struct {
	curve *hilbert.Curve
	depth int
	// scratch pools the per-query working state, so concurrent queries
	// stay allocation-light without sharing state.
	scratch sync.Pool // *planScratch
}

// planScratch is the reusable scratch state of one in-flight query: the
// widened query point, the per-dimension mass cache, the frontier
// planner's leaf/frontier buffers and the refiner's match buffer. All of
// it is reset, not reallocated, between queries, keeping planning
// allocation-free and refinement down to its result.
type planScratch struct {
	qf []float64
	mc *massCache
	fs *frontierState
	rf *refiner
}

// getScratch borrows a scratch set with a fresh mass cache; return it
// with pl.scratch.Put.
func (pl *Planner) getScratch() *planScratch {
	if v := pl.scratch.Get(); v != nil {
		ps := v.(*planScratch)
		ps.mc.reset()
		return ps
	}
	return &planScratch{
		qf: make([]float64, pl.dims()),
		mc: newMassCache(pl.dims(), pl.curve.SideLen()),
		fs: newFrontierState(pl.curve),
		rf: newRefiner(),
	}
}

// setQuery validates q and widens it into the scratch's float buffer.
func (ps *planScratch) setQuery(q []byte) error {
	if err := checkQuery(q, len(ps.qf)); err != nil {
		return err
	}
	for i, b := range q {
		ps.qf[i] = float64(b)
	}
	return nil
}

// dims returns the fingerprint dimension.
func (pl *Planner) dims() int { return pl.curve.Dims() }

// NewPlanner returns a planner at the given depth of curve.
func NewPlanner(curve *hilbert.Curve, depth int) (*Planner, error) {
	pl := &Planner{}
	if err := pl.init(curve, depth); err != nil {
		return nil, err
	}
	return pl, nil
}

// init binds the planner to curve at depth, which it checks.
func (pl *Planner) init(curve *hilbert.Curve, depth int) error {
	if err := checkDepth(curve, depth); err != nil {
		return err
	}
	pl.curve, pl.depth = curve, depth
	return nil
}

// checkDepth is the one depth check: a plan's depth is in
// [1, min(K·D, hilbert.MaxDepth)], so its blocks are the curve's and
// their indices, counts and run ends fit 64-bit integers.
func checkDepth(curve *hilbert.Curve, depth int) error {
	if hi := maxDepth(curve); depth < 1 || depth > hi {
		return fmt.Errorf("core: depth %d outside [1,%d]", depth, hi)
	}
	return nil
}

// maxDepth is the deepest partition of curve a plan may use.
func maxDepth(curve *hilbert.Curve) int { return min(curve.IndexBits(), hilbert.MaxDepth) }

// Index is the in-memory S³ index: a curve-ordered fingerprint database
// plus the partition depth p used by the filtering step. The database is
// static (Section IV); rebuilding is the only way to insert or delete.
// An Index is safe for concurrent queries (SetDepth excluded).
type Index struct {
	Planner
	db *store.DB
}

// DefaultDepth returns the heuristic initial partition depth for n
// records: enough blocks that a block holds a handful of records. The
// paper learns the optimal p at the start of the retrieval stage
// (TuneDepth does that); this is only the starting point.
func DefaultDepth(curve *hilbert.Curve, n int) int {
	if n < 2 {
		return 1
	}
	p := int(math.Ceil(math.Log2(float64(n)))) + 1
	if p < 1 {
		p = 1
	}
	return min(p, maxDepth(curve))
}

// NewIndex wraps a database. depth <= 0 selects DefaultDepth.
func NewIndex(db *store.DB, depth int) (*Index, error) {
	curve := db.Curve()
	if depth <= 0 {
		depth = DefaultDepth(curve, db.Len())
	}
	ix := &Index{db: db}
	if err := ix.init(curve, depth); err != nil {
		return nil, err
	}
	return ix, nil
}

// DB returns the underlying database.
func (ix *Index) DB() *store.DB { return ix.db }

// SetDepth changes the partition depth. It panics outside
// [1, min(K·D, hilbert.MaxDepth)].
func (pl *Planner) SetDepth(p int) {
	if err := checkDepth(pl.curve, p); err != nil {
		panic(err)
	}
	pl.depth = p
}

// Depth returns the current partition depth p.
func (pl *Planner) Depth() int { return pl.depth }

// Curve returns the curve the planner plans on.
func (pl *Planner) Curve() *hilbert.Curve { return pl.curve }

// Match is one fingerprint returned by a query.
type Match struct {
	// Pos is the record index in the database.
	Pos int
	// ID and TC are the stored video identifier and time code.
	ID, TC uint32
	// X and Y are the stored interest point position (0 when the producer
	// did not record positions).
	X, Y uint16
	// Dist is the L2 distance to the query for range queries, and -1 for
	// statistical queries, whose answer is the region itself.
	Dist float64
}

// checkQuery rejects a query fingerprint of the wrong dimension.
func checkQuery(q []byte, dims int) error {
	if len(q) != dims {
		return fmt.Errorf("core: query has %d components, index has %d", len(q), dims)
	}
	return nil
}

// queryPoint widens a byte fingerprint to float64 coordinates.
func queryPoint(q []byte, dims int) ([]float64, error) {
	if err := checkQuery(q, dims); err != nil {
		return nil, err
	}
	out := make([]float64, dims)
	for i, b := range q {
		out[i] = float64(b)
	}
	return out, nil
}

// distSqToFP returns the squared L2 distance between float query q and a
// stored byte fingerprint.
func distSqToFP(q []float64, fp []byte) float64 {
	s := 0.0
	for i, b := range fp {
		d := q[i] - float64(b)
		s += d * d
	}
	return s
}
