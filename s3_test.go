package s3

import (
	"context"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"s3cbcd/internal/vidsim"
)

func randomRecords(r *rand.Rand, dims, n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		fp := make([]byte, dims)
		for j := range fp {
			fp[j] = byte(r.Intn(256))
		}
		recs[i] = Record{FP: fp, ID: uint32(i % 10), TC: uint32(i)}
	}
	return recs
}

func TestIndexLifecycle(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	recs := randomRecords(r, 8, 1000)
	x, err := BuildIndex(8, recs, IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if x.Len() != 1000 || x.Dims() != 8 {
		t.Fatalf("Len=%d Dims=%d", x.Len(), x.Dims())
	}
	sq := StatQuery{Alpha: 0.8, Model: IsoNormal{D: 8, Sigma: 10}}
	q := recs[0].FP
	matches, plan, err := x.StatSearch(q, sq)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Mass < 0.8 {
		t.Fatalf("plan mass %v", plan.Mass)
	}
	foundSelf := false
	for _, m := range matches {
		if m.ID == recs[0].ID && m.TC == recs[0].TC {
			foundSelf = true
		}
	}
	if !foundSelf {
		t.Fatal("statistical search around a stored fingerprint did not return it")
	}

	// Range and scan agree.
	rm, _, err := x.RangeSearch(q, 50)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := x.ScanSearch(q, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(rm) != len(sm) {
		t.Fatalf("range %d vs scan %d results", len(rm), len(sm))
	}

	// Save / reload round trip.
	path := filepath.Join(t.TempDir(), "idx.s3db")
	if err := x.Save(path, 8); err != nil {
		t.Fatal(err)
	}
	y, err := OpenIndex(path, x.Depth())
	if err != nil {
		t.Fatal(err)
	}
	m2, _, err := y.StatSearch(q, sq)
	if err != nil {
		t.Fatal(err)
	}
	if len(m2) != len(matches) {
		t.Fatalf("reloaded index returned %d matches, original %d", len(m2), len(matches))
	}

	// Disk batch equals in-memory.
	d, err := OpenDiskIndex(path, x.Depth())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.Count() != 1000 {
		t.Fatalf("disk count %d", d.Count())
	}
	res, stats, err := d.SearchBatch([][]byte{q}, sq, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(res[0]) != len(matches) {
		t.Fatalf("disk batch %d matches, memory %d", len(res[0]), len(matches))
	}
	if stats.SectionsLoaded == 0 {
		t.Fatal("no sections loaded")
	}
}

func TestTuneSetsDepth(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	x, err := BuildIndex(8, randomRecords(r, 8, 2000), IndexOptions{Depth: 4})
	if err != nil {
		t.Fatal(err)
	}
	samples := make([][]byte, 5)
	for i := range samples {
		samples[i] = randomRecords(r, 8, 1)[0].FP
	}
	sweep, err := x.Tune(samples, StatQuery{Alpha: 0.8, Model: IsoNormal{D: 8, Sigma: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep) == 0 {
		t.Fatal("empty sweep")
	}
}

func TestMatchedRangeRadius(t *testing.T) {
	eps := MatchedRangeRadius(20, 20, 0.8)
	if eps < 90 || eps < MatchedRangeRadius(20, 20, 0.5) {
		t.Fatalf("eps = %v", eps)
	}
}

func TestVideoPipelineFacade(t *testing.T) {
	ref := GenerateVideo(42, 150)
	in := NewVideoIndexer(CBCDConfig{})
	if n := in.AddSequence(1, ref); n == 0 {
		t.Fatal("no fingerprints extracted")
	}
	det, err := in.Build()
	if err != nil {
		t.Fatal(err)
	}
	dets, err := det.DetectClip(ref)
	if err != nil {
		t.Fatal(err)
	}
	if len(dets) == 0 || dets[0].ID != 1 {
		t.Fatalf("self-detection failed: %+v", dets)
	}

	locals := ExtractFingerprints(ref, ExtractConfig{})
	if len(locals) == 0 {
		t.Fatal("facade extraction empty")
	}

	est, err := EstimateDistortion([]*Video{ref}, vidsim.Gamma{G: 1.5}, ExtractConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if est.Sigma <= 0 {
		t.Fatalf("estimate sigma %v", est.Sigma)
	}
}

func TestNewDetectorDimsCheck(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	x, err := BuildIndex(8, randomRecords(r, 8, 10), IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDetector(x, CBCDConfig{}); err == nil {
		t.Fatal("8-dim index accepted for 20-dim detector")
	}
	x20, err := BuildIndex(FingerprintDims, randomRecords(r, FingerprintDims, 10), IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDetector(x20, CBCDConfig{}); err != nil {
		t.Fatal(err)
	}
}

// addShardManifestV3 rewrites a format-v2 file as Save once wrote a
// sharded index: version 3, with the shard count and record starts after
// the 2^sectionBits+1-entry section table (docs/FORMAT.md).
func addShardManifestV3(t *testing.T, path string, sectionBits int, starts ...uint64) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	head := 28 + 8*(1<<sectionBits+1)
	binary.LittleEndian.PutUint32(raw[4:], 3)
	sec := binary.LittleEndian.AppendUint32(nil, uint32(len(starts)-1))
	for _, s := range starts {
		sec = binary.LittleEndian.AppendUint64(sec, s)
	}
	if err := os.WriteFile(path, append(append(raw[:head:head], sec...), raw[head:]...), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestShardedIndexLifecycle (the name predates the removal of the shard
// option) walks one index through its life: answers do not depend on the
// worker bound, survive Save → OpenIndex, and are the same from a file
// carrying a legacy shard manifest, in memory and through the disk index.
func TestShardedIndexLifecycle(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	recs := randomRecords(r, 8, 1200)
	plain, err := BuildIndex(8, recs, IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := BuildIndex(8, recs, IndexOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	sq := StatQuery{Alpha: 0.8, Model: IsoNormal{D: 8, Sigma: 10}}
	queries := make([][]byte, 25)
	for i := range queries {
		queries[i] = recs[r.Intn(len(recs))].FP
	}
	batch, err := sharded.SearchStatBatch(context.Background(), queries, sq)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		want, _, err := plain.StatSearch(q, sq)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := sharded.StatSearch(q, sq)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d: 4-worker StatSearch differs from default", i)
		}
		if !reflect.DeepEqual(batch[i], want) {
			t.Fatalf("query %d: SearchStatBatch differs from StatSearch", i)
		}
	}

	// Save → reopen answers identically, and so does the same file once it
	// carries the legacy shard manifest older Saves embedded (format v3).
	path := filepath.Join(t.TempDir(), "sharded.s3db")
	if err := sharded.Save(path, 8); err != nil {
		t.Fatal(err)
	}
	for _, manifest := range []bool{false, true} {
		if manifest {
			addShardManifestV3(t, path, 8, 0, 300, 600, 900, 1200)
		}
		reopened, err := OpenIndex(path, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range queries {
			want, _, err := plain.StatSearch(q, sq)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := reopened.StatSearch(q, sq)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("query %d: reopened index (manifest %v) differs", i, manifest)
			}
		}
	}

	// The manifest-bearing file still works for the disk index path.
	d, err := OpenDiskIndex(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	dres, _, err := d.SearchBatch(queries[:5], sq, 400)
	if err != nil {
		t.Fatal(err)
	}
	for i := range dres {
		want, _, err := plain.StatSearch(queries[i], sq)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(dres[i], want) {
			t.Fatalf("query %d: disk index over manifest-bearing file differs", i)
		}
	}
}
