package store

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"s3cbcd/internal/hilbert"
)

// v4TestFile writes a random database as a format-4 file carrying every
// optional section — sketch, quantized codec and a spliced-in legacy
// shard manifest — returning its path and source DB.
func v4TestFile(t *testing.T, seed int64, n, sectionBits int) (string, *DB) {
	t.Helper()
	curve := hilbert.MustNew(6, 4)
	db := MustBuild(curve, randRecords(rand.New(rand.NewSource(seed)), curve, n))
	path := filepath.Join(t.TempDir(), "v4.s3db")
	if err := db.WriteFileOpts(path, WriteOptions{
		SectionBits: sectionBits, Sketch: true, Codec: true,
	}); err != nil {
		t.Fatal(err)
	}
	AddShardManifest(t, path, 0, uint64(n/3), uint64(n/3), uint64(n))
	return path, db
}

// TestFileV4RoundTrip: a v4 file opens with its sketch and codec intact,
// and all three record areas — exact, lean, packed codes — agree with
// the source database record by record.
func TestFileV4RoundTrip(t *testing.T) {
	path, db := v4TestFile(t, 51, 180, 5)
	fl, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	if fl.Version() != 4 {
		t.Fatalf("version %d, want 4", fl.Version())
	}
	if fl.Sketch() == nil || !fl.HasCodec() || fl.Quantizer() == nil {
		t.Fatal("v4 file lost its sketch or codec at open")
	}
	if fl.ShardStarts() == nil {
		t.Fatal("v4 file lost its shard manifest")
	}
	if fl.SketchBytes() != fl.Sketch().EncodedSize() {
		t.Fatalf("SketchBytes %d != EncodedSize %d", fl.SketchBytes(), fl.Sketch().EncodedSize())
	}
	// Exact area.
	ch, err := fl.LoadRecords(0, db.Len())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < db.Len(); i++ {
		if ch.Key(i).Cmp(db.Key(i)) != 0 || string(ch.FP(i)) != string(db.FP(i)) ||
			ch.ID(i) != db.ID(i) || ch.TC(i) != db.TC(i) || ch.X(i) != db.X(i) || ch.Y(i) != db.Y(i) {
			t.Fatalf("exact record %d differs", i)
		}
	}
	// Lean area: same columns minus fingerprints.
	lean, err := fl.LoadLean(0, db.Len())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < db.Len(); i++ {
		if lean.Key(i).Cmp(db.Key(i)) != 0 || lean.ID(i) != db.ID(i) ||
			lean.TC(i) != db.TC(i) || lean.X(i) != db.X(i) || lean.Y(i) != db.Y(i) {
			t.Fatalf("lean record %d differs", i)
		}
	}
	// Code area: stored codes must equal re-encoding the exact records.
	qz := fl.Quantizer()
	stored, err := fl.load(areaCodes, 0, db.Len())
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, qz.CodeBytes(db.Dims()))
	for i := 0; i < db.Len(); i++ {
		for j := range want {
			want[j] = 0
		}
		qz.encode(db.FP(i), want)
		if string(stored.row(i)) != string(want) {
			t.Fatalf("code row %d differs from re-encoded fingerprint", i)
		}
	}
	// Single-record fallback reads.
	for _, i := range []int{0, 1, db.Len() / 2, db.Len() - 1} {
		ch, err := fl.LoadRecords(i, i+1)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := flatAt(ch, 0), flatAt(&db.Chunk, i); got != want {
			t.Fatalf("LoadRecords(%d, %d) = %+v, want %+v", i, i+1, got, want)
		}
	}
}

// TestFileV4LoadAllMatches: bulk reload of a v4 file (used by the live
// recovery and compaction paths) ignores the extra areas correctly.
func TestFileV4LoadAllMatches(t *testing.T) {
	path, db := v4TestFile(t, 53, 90, 4)
	fl, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	got := loadAllIsRowImage(t, fl, path)
	if got.Len() != db.Len() {
		t.Fatalf("LoadAll %d records, want %d", got.Len(), db.Len())
	}
	for i := 0; i < db.Len(); i++ {
		if got.Key(i).Cmp(db.Key(i)) != 0 || string(got.FP(i)) != string(db.FP(i)) {
			t.Fatalf("record %d differs after LoadAll", i)
		}
	}
}

// TestFileV4TruncationFailsAtOpen: every prefix of a v4 file must be
// rejected at open — the sketch, codec, lean and code areas are all
// probed before any read path can trip over them (the PR 6 record-area
// probe discipline extended to the new sections).
func TestFileV4TruncationFailsAtOpen(t *testing.T) {
	path, _ := v4TestFile(t, 57, 120, 5)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cuts := []int64{int64(len(full)) - 1, int64(len(full)) - 7}
	for f := 1; f < 16; f++ {
		cuts = append(cuts, int64(len(full)*f/16))
	}
	for _, cut := range cuts {
		p := filepath.Join(t.TempDir(), "cut.s3db")
		if err := os.WriteFile(p, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if fl, err := Open(p); err == nil {
			fl.Close()
			t.Fatalf("opening a v4 file truncated to %d of %d bytes succeeded", cut, len(full))
		}
	}
}

// TestFileV4UnknownFlagRejected: a flags word carrying bits this package
// does not understand must fail at open, not be silently ignored — an
// unknown section would shift every offset after it.
func TestFileV4UnknownFlagRejected(t *testing.T) {
	path, _ := v4TestFile(t, 59, 40, 4)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[28] |= 1 << 6 // flags word sits right after the 28-byte header
	p := filepath.Join(t.TempDir(), "flag.s3db")
	if err := os.WriteFile(p, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if fl, err := Open(p); err == nil {
		fl.Close()
		t.Fatal("open accepted an unknown v4 flag bit")
	}
}

// TestColdFileLeanMatchesDB: the lean visit path delivers exactly the
// records VisitIntervals would, minus fingerprints, across cache shapes.
func TestColdFileLeanMatchesDB(t *testing.T) {
	path, db := v4TestFile(t, 61, 300, 6)
	r := rand.New(rand.NewSource(62))
	for _, budget := range []int64{-1, 2048, 1 << 20} {
		var cache *BlockCache
		if budget >= 0 {
			cache = NewBlockCache(budget)
		}
		ctr := NewColdCounters()
		cf, err := OpenColdOptsFS(OSFS, path, ColdOptions{
			Cache: cache, BlockRecords: 16, Sketch: true, Codec: true, Counters: ctr,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !cf.Codec() || cf.Sketch() == nil {
			cf.Close()
			t.Fatal("cold open dropped the sketch or codec")
		}
		for trial := 0; trial < 25; trial++ {
			ivs := randIntervals(r, db.Curve(), 1+r.Intn(5))
			want := collectVisits(t, db, ivs)
			var got []flatRecord
			if err := cf.VisitIntervalsLean(ivs.depth, ivs.runs, PerRecord(func(c *Chunk, i int) bool {
				if c.FP(i) != nil {
					t.Fatal("lean visit delivered a fingerprint")
				}
				got = append(got, flatAt(c, i))
				return true
			})); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("budget %d trial %d: lean visited %d, db %d", budget, trial, len(got), len(want))
			}
			for i := range want {
				w := want[i]
				w.fp = ""
				if got[i] != w {
					t.Fatalf("budget %d trial %d: lean record %d differs", budget, trial, i)
				}
			}
		}
		if ctr.BytesSaved.Value() <= 0 {
			t.Fatalf("budget %d: lean visits saved no bytes", budget)
		}
		cf.Close()
	}
}

// TestColdFileFilteredMatchesDB: the quantize-filtered visit path must
// deliver a superset of the in-radius records (conservative filter) with
// exact fingerprints, and combined with the caller's exact predicate
// produce byte-identical answers to the resident scan.
func TestColdFileFilteredMatchesDB(t *testing.T) {
	path, db := v4TestFile(t, 67, 400, 6)
	r := rand.New(rand.NewSource(68))
	for _, budget := range []int64{-1, 4096, 1 << 20} {
		var cache *BlockCache
		if budget >= 0 {
			cache = NewBlockCache(budget)
		}
		ctr := NewColdCounters()
		cf, err := OpenColdOptsFS(OSFS, path, ColdOptions{
			Cache: cache, BlockRecords: 8, Sketch: true, Codec: true, Counters: ctr,
		})
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 30; trial++ {
			ivs := randIntervals(r, db.Curve(), 1+r.Intn(4))
			qf := make([]float64, db.Dims())
			for j := range qf {
				qf[j] = r.Float64() * 16
			}
			// Radii small and large: small ones exercise rejection+fallback,
			// large ones the dense-survivor exact-block path.
			boundSq := []float64{4, 50, 400}[trial%3]

			within := map[int]flatRecord{}
			if err := db.VisitIntervals(ivs.depth, ivs.runs, PerRecord(func(c *Chunk, i int) bool {
				if distSqBytes(qf, c.FP(i)) <= boundSq {
					within[c.Base()+i] = flatAt(c, i)
				}
				return true
			})); err != nil {
				t.Fatal(err)
			}

			seen := map[int]bool{}
			if err := cf.VisitIntervalsFiltered(ivs.depth, ivs.runs, qf, boundSq, PerRecord(func(c *Chunk, i int) bool {
				got := flatAt(c, i)
				seen[got.pos] = true
				if w, ok := within[got.pos]; ok {
					if got != w {
						t.Fatalf("budget %d trial %d: filtered record %d differs from resident", budget, trial, got.pos)
					}
				} else if distSqBytes(qf, c.FP(i)) <= boundSq {
					t.Fatalf("budget %d trial %d: filtered visited in-radius record %d the resident scan missed", budget, trial, got.pos)
				}
				return true
			})); err != nil {
				t.Fatal(err)
			}
			for pos := range within {
				if !seen[pos] {
					t.Fatalf("budget %d trial %d: filter dropped in-radius record %d", budget, trial, pos)
				}
			}
		}
		if ctr.QuantizedRejects.Value() == 0 {
			t.Fatalf("budget %d: the quantized filter never rejected a candidate", budget)
		}
		cf.Close()
	}
}

// TestColdFileSketchSkipsBlocks: sparse single-block interval sets must
// hit the block-level sketch skip — zero visits, accounted bytes saved —
// while never skipping an occupied block (checked against the DB).
func TestColdFileSketchSkipsBlocks(t *testing.T) {
	path, db := v4TestFile(t, 71, 260, 6)
	r := rand.New(rand.NewSource(72))
	ctr := NewColdCounters()
	cf, err := OpenColdOptsFS(OSFS, path, ColdOptions{
		BlockRecords: 8, Sketch: true, Codec: true, Counters: ctr,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	for trial := 0; trial < 150; trial++ {
		ivs := randIntervals(r, db.Curve(), 1)
		want := collectVisits(t, db, ivs)
		got := collectVisits(t, cf, ivs)
		if len(got) != len(want) {
			t.Fatalf("trial %d: sketch-guarded visit returned %d records, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: record %d differs", trial, i)
			}
		}
	}
	if ctr.SkippedBlocks.Value() == 0 {
		t.Fatal("150 narrow interval sets never skipped a block")
	}
	if ctr.BytesSaved.Value() <= 0 {
		t.Fatal("block skips saved no bytes")
	}
}
