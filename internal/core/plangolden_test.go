package core

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"s3cbcd/internal/bitkey"
	"s3cbcd/internal/hilbert"
	"s3cbcd/internal/store"
)

// hashPlanKeys writes a plan's runs into h as the first and the
// one-past-the-end curve key of each on c, word by word, big-endian, in
// order: the form the plan digests were first recorded in, when a plan
// was a list of key intervals.
func hashPlanKeys(h hash.Hash64, c *hilbert.Curve, p Plan) {
	var w [8]byte
	shift := uint(c.IndexBits() - p.Depth)
	for _, r := range p.Intervals {
		for _, k := range [2]bitkey.Key{bitkey.FromUint64(r.Lo).Shl(shift), bitkey.FromUint64(r.Hi).Shl(shift)} {
			for _, x := range k {
				binary.BigEndian.PutUint64(w[:], x)
				h.Write(w[:])
			}
		}
	}
}

// TestStatPlanGolden pins 600 seeded statistical plans, drawn as
// TestFrontierPlanMatchesLegacy draws them (dims 2, 3 or 5, random
// depth, α and model), to an FNV-1a digest of their interval keys,
// block counts, masses and thresholds, and to their summed descent
// nodes, blocks and intervals. Every fifth seed also plans exactly
// (PlanStatExact). A change to how a plan is represented must leave all
// of it unchanged.
func TestStatPlanGolden(t *testing.T) {
	const (
		wantDigest    = 0x86d2cc1121f5f636
		wantNodes     = 81816
		wantBlocks    = 15855
		wantIntervals = 3070
	)
	dbs := map[int]*store.DB{
		2: testDB(t, 2, 3000, 101),
		3: testDB(t, 3, 4000, 102),
		5: testDB(t, 5, 3000, 103),
	}
	dimChoices := []int{2, 3, 5}
	h := fnv.New64a()
	var w [8]byte
	put := func(x uint64) {
		binary.BigEndian.PutUint64(w[:], x)
		h.Write(w[:])
	}
	nodes, blocks, intervals := 0, 0, 0
	note := func(c *hilbert.Curve, p Plan) {
		hashPlanKeys(h, c, p)
		put(uint64(p.Blocks))
		put(math.Float64bits(p.Mass))
		put(math.Float64bits(p.Threshold))
		nodes += p.DescentNodes
		blocks += p.Blocks
		intervals += len(p.Intervals)
	}
	for seed := int64(1); seed <= 600; seed++ {
		r := rand.New(rand.NewSource(seed))
		dims := dimChoices[r.Intn(len(dimChoices))]
		db := dbs[dims]
		ix, err := NewIndex(db, 0)
		if err != nil {
			t.Fatal(err)
		}
		maxDepth := min(14, ix.curve.IndexBits())
		ix.SetDepth(3 + r.Intn(maxDepth-2))
		sq := StatQuery{Alpha: 0.3 + r.Float64()*0.69, Model: randomModel(r, dims)}
		q, _ := distortedQuery(r, db, 10)
		p, err := ix.PlanStat(q, sq)
		if err != nil {
			t.Fatal(err)
		}
		note(ix.curve, p)
		if seed%5 == 0 {
			if p, err = ix.PlanStatExact(q, sq); err != nil {
				t.Fatal(err)
			}
			note(ix.curve, p)
		}
	}
	if h.Sum64() != wantDigest || nodes != wantNodes || blocks != wantBlocks || intervals != wantIntervals {
		t.Errorf("digest/nodes/blocks/intervals = %#x/%d/%d/%d, golden %#x/%d/%d/%d",
			h.Sum64(), nodes, blocks, intervals, uint64(wantDigest), wantNodes, wantBlocks, wantIntervals)
	}
}
