package store

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"s3cbcd/internal/hilbert"
)

func shardTestDB(t *testing.T, dims, n int, seed int64) *DB {
	t.Helper()
	curve := hilbert.MustNew(dims, 8)
	r := rand.New(rand.NewSource(seed))
	return MustBuild(curve, randRecords(r, curve, n))
}

// manifestLayouts are the two layouts a legacy shard manifest can ride
// on: version 2 (becoming 3) and version 4.
var manifestLayouts = []struct {
	opt     WriteOptions
	version int // once the manifest is spliced in
}{
	{WriteOptions{}, fileVersionV3},
	{WriteOptions{Sketch: true, Codec: true}, fileVersionV4},
}

// manifestFile writes db with opt and splices in the manifest starts.
func manifestFile(t *testing.T, db *DB, opt WriteOptions, starts ...uint64) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "manifest.s3db")
	if err := db.WriteFileOpts(path, opt); err != nil {
		t.Fatal(err)
	}
	AddShardManifest(t, path, starts...)
	return path
}

// TestWriteFileShardedRoundTrip: no writer emits the legacy shard
// manifest any more, but a file carrying one (version 3, or version 4
// with the flag — both synthesized here) still opens, reports the
// manifest as stored, and reads back every record behind it.
func TestWriteFileShardedRoundTrip(t *testing.T) {
	db := shardTestDB(t, 6, 800, 13)
	for _, l := range manifestLayouts {
		l.opt.SectionBits = 10
		fl, err := Open(manifestFile(t, db, l.opt, 0, 200, 200, 555, 800))
		if err != nil {
			t.Fatal(err)
		}
		defer fl.Close()
		if fl.Version() != l.version {
			t.Fatalf("version %d, want %d", fl.Version(), l.version)
		}
		if got, want := fl.ShardStarts(), []int{0, 200, 200, 555, 800}; !reflect.DeepEqual(got, want) {
			t.Fatalf("manifest %v, want %v", got, want)
		}
		// The manifest shifts the record area; everything after it must still
		// read back exactly.
		got, err := fl.LoadAll()
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != db.Len() {
			t.Fatalf("reloaded %d records, want %d", got.Len(), db.Len())
		}
		for i := 0; i < db.Len(); i++ {
			if got.Key(i) != db.Key(i) || !reflect.DeepEqual(got.FP(i), db.FP(i)) ||
				got.ID(i) != db.ID(i) || got.TC(i) != db.TC(i) ||
				got.X(i) != db.X(i) || got.Y(i) != db.Y(i) {
				t.Fatalf("record %d differs after manifest round-trip", i)
			}
		}
		// Partial loads must honor the shifted data offset too.
		ch, err := fl.LoadRecords(100, 130)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < ch.Len(); i++ {
			if ch.Key(i) != db.Key(100+i) {
				t.Fatalf("chunk record %d differs", i)
			}
		}
	}
}

// TestOpenRejectsCorruptShardManifest: the sections behind the manifest
// are located by its length, so it is validated before being skipped.
func TestOpenRejectsCorruptShardManifest(t *testing.T) {
	db := shardTestDB(t, 6, 100, 5)
	for _, l := range manifestLayouts {
		for name, starts := range map[string][]uint64{
			"no shards":       {0},
			"more than count": make([]uint64, 103),
			"not from zero":   {5, 100},
			"short of count":  {0, 50},
			"past count":      {0, 101},
			"decreasing":      {0, 60, 40, 100},
			"negative as int": {0, 1 << 63, 100},
		} {
			if fl, err := Open(manifestFile(t, db, l.opt, starts...)); err == nil {
				fl.Close()
				t.Errorf("version %d: manifest %q accepted", l.version, name)
			}
		}
		// A manifest cut short by the end of the file.
		path := manifestFile(t, db, l.opt, 0, 50, 100)
		if err := os.Truncate(path, 28+4+8*2+4+12); err != nil {
			t.Fatal(err)
		}
		if fl, err := Open(path); err == nil {
			fl.Close()
			t.Errorf("version %d: truncated manifest accepted", l.version)
		}
	}
}

func TestWriteFileUnshardedStaysV2(t *testing.T) {
	db := shardTestDB(t, 6, 200, 17)
	path := filepath.Join(t.TempDir(), "plain.s3db")
	if err := db.WriteFile(path, 8); err != nil {
		t.Fatal(err)
	}
	fl, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	if fl.Version() != 2 {
		t.Fatalf("version %d, want 2", fl.Version())
	}
	if fl.ShardStarts() != nil {
		t.Fatalf("v2 file reports manifest %v", fl.ShardStarts())
	}
}
