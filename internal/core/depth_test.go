package core

import (
	"context"
	"path/filepath"
	"testing"

	"s3cbcd/internal/hilbert"
	"s3cbcd/internal/store"
)

// TestDepthBounds: every constructor that takes a partition depth
// accepts [1, min(K·D, hilbert.MaxDepth)] and refuses what lies past it,
// through the one check; where a non-positive depth means the default,
// it still does. On the paper's curve K·D = 160, so hilbert.MaxDepth is
// the bound that binds.
func TestDepthBounds(t *testing.T) {
	curve := hilbert.MustNew(20, 8)
	db := store.MustBuild(curve, []store.Record{{FP: make([]byte, 20)}, {FP: make([]byte, 20), ID: 1}})
	path := filepath.Join(t.TempDir(), "depth.s3db")
	if err := db.WriteFile(path, 4); err != nil {
		t.Fatal(err)
	}
	file, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	sample := [][]byte{make([]byte, 20)}
	sq := StatQuery{Alpha: 0.5, Model: IsoNormal{D: 20, Sigma: 10}}

	ctors := []struct {
		name string
		// defaults: a non-positive depth selects the default.
		defaults bool
		make     func(depth int) error
	}{
		{"NewPlanner", false, func(p int) error { _, err := NewPlanner(curve, p); return err }},
		{"NewIndex", true, func(p int) error { _, err := NewIndex(db, p); return err }},
		{"NewDiskIndex", true, func(p int) error { _, err := NewDiskIndex(file, p); return err }},
		{"OpenLiveIndex", true, func(p int) error {
			li, err := OpenLiveIndex(curve, "", LiveOptions{Depth: p})
			if err == nil {
				li.Close()
			}
			return err
		}},
		// A sweep plans its samples at every depth it is given, which at
		// hilbert.MaxDepth takes without bound: only refusals are checked.
		{"SweepDepth", false, func(p int) error {
			ix, err := NewIndex(db, 8)
			if err != nil {
				return err
			}
			if p == hilbert.MaxDepth {
				return nil
			}
			_, err = ix.SweepDepth([]int{p}, sample, sq)
			return err
		}},
	}
	for _, c := range ctors {
		for _, d := range []struct {
			depth int
			ok    bool
		}{
			{0, c.defaults},
			{-1, c.defaults},
			{hilbert.MaxDepth, true},
			{hilbert.MaxDepth + 1, false},
			{curve.IndexBits() + 1, false},
		} {
			if err := c.make(d.depth); (err == nil) != d.ok {
				t.Errorf("%s(depth %d): err = %v, want ok = %v", c.name, d.depth, err, d.ok)
			}
		}
	}
}

// TestRefineStatRunBounds: a given plan may end at the curve's last
// block, 2^p, and its block count then still fits an int at
// hilbert.MaxDepth; one block further is refused.
func TestRefineStatRunBounds(t *testing.T) {
	curve := hilbert.MustNew(20, 8)
	db := store.MustBuild(curve, []store.Record{{FP: make([]byte, 20)}, {FP: make([]byte, 20), ID: 1}})
	q := make([]byte, 20)
	sq := StatQuery{Alpha: 0.5, Model: IsoNormal{D: 20, Sigma: 10}}
	for _, depth := range []int{6, hilbert.MaxDepth} {
		ix, err := NewIndex(db, depth)
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(ix, 1)
		end := uint64(1) << depth
		ms, plan, err := e.RefineStat(context.Background(), q, sq, []hilbert.Run{{Lo: 0, Hi: end}})
		if err != nil || len(ms) != db.Len() || uint64(plan.Blocks) != end || plan.Depth != depth {
			t.Errorf("depth %d, the whole curve: %d matches, %d blocks, depth %d, err %v; want %d, %d, %d",
				depth, len(ms), plan.Blocks, plan.Depth, err, db.Len(), end, depth)
		}
		if _, _, err := e.RefineStat(context.Background(), q, sq, []hilbert.Run{{Lo: 0, Hi: end + 1}}); err == nil {
			t.Errorf("depth %d: a run ending at 2^p + 1 was accepted", depth)
		}
	}
}
