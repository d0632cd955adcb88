package store

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"s3cbcd/internal/bitkey"
	"s3cbcd/internal/hilbert"
)

func randRecords(r *rand.Rand, curve *hilbert.Curve, n int) []Record {
	recs := make([]Record, n)
	side := int(curve.SideLen())
	for i := range recs {
		fp := make([]byte, curve.Dims())
		for j := range fp {
			fp[j] = byte(r.Intn(side))
		}
		recs[i] = Record{FP: fp, ID: uint32(r.Intn(50)), TC: uint32(r.Intn(10000))}
	}
	return recs
}

func TestBuildSortsByKey(t *testing.T) {
	curve := hilbert.MustNew(20, 8)
	r := rand.New(rand.NewSource(1))
	recs := randRecords(r, curve, 500)
	db := MustBuild(curve, recs)
	if db.Len() != 500 || db.Dims() != 20 {
		t.Fatalf("Len=%d Dims=%d", db.Len(), db.Dims())
	}
	pt := make([]uint32, 20)
	for i := 0; i < db.Len(); i++ {
		if i > 0 && db.Key(i).Less(db.Key(i-1)) {
			t.Fatalf("keys not sorted at %d", i)
		}
		for j, b := range db.FP(i) {
			pt[j] = uint32(b)
		}
		if curve.Encode(pt) != db.Key(i) {
			t.Fatalf("stored key mismatch at %d", i)
		}
	}
}

func TestBuildValidation(t *testing.T) {
	curve := hilbert.MustNew(4, 4)
	if _, err := Build(curve, []Record{{FP: []byte{1, 2, 3}}}); err == nil {
		t.Fatal("short fingerprint accepted")
	}
	if _, err := Build(curve, []Record{{FP: []byte{1, 2, 3, 200}}}); err == nil {
		t.Fatal("out-of-grid component accepted")
	}
	db, err := Build(curve, nil)
	if err != nil || db.Len() != 0 {
		t.Fatalf("empty build: %v", err)
	}
}

func TestFindIntervalMatchesBruteForce(t *testing.T) {
	curve := hilbert.MustNew(6, 4)
	r := rand.New(rand.NewSource(2))
	db := MustBuild(curve, randRecords(r, curve, 300))
	for trial := 0; trial < 200; trial++ {
		a := bitkey.FromUint64(uint64(r.Int63n(1 << 24)))
		b := bitkey.FromUint64(uint64(r.Int63n(1 << 24)))
		if b.Less(a) {
			a, b = b, a
		}
		iv := hilbert.Interval{Start: a, End: b}
		lo, hi := db.FindInterval(iv)
		for i := 0; i < db.Len(); i++ {
			in := db.Key(i).Cmp(a) >= 0 && db.Key(i).Less(b)
			got := i >= lo && i < hi
			if in != got {
				t.Fatalf("record %d: in=%v got=%v (lo=%d hi=%d)", i, in, got, lo, hi)
			}
		}
	}
}

// TestFindIntervalFromWalksSortedIntervals checks the hinted search on
// the input it exists for: over sorted, disjoint intervals, starting each
// search at the previous interval's hi finds exactly FindInterval's range.
func TestFindIntervalFromWalksSortedIntervals(t *testing.T) {
	curve := hilbert.MustNew(6, 4)
	r := rand.New(rand.NewSource(4))
	db := MustBuild(curve, randRecords(r, curve, 300))
	for trial := 0; trial < 50; trial++ {
		from, at := 0, uint64(0)
		for at < 1<<24 {
			start := at + uint64(r.Int63n(1<<18))
			end := start + uint64(r.Int63n(1<<19)) // empty intervals included
			iv := hilbert.Interval{Start: bitkey.FromUint64(start), End: bitkey.FromUint64(end)}
			wantLo, wantHi := db.FindInterval(iv)
			lo, hi := db.FindIntervalFrom(from, iv)
			if lo != wantLo || hi != wantHi {
				t.Fatalf("from %d: [%d,%d), want [%d,%d)", from, lo, hi, wantLo, wantHi)
			}
			from, at = hi, end
		}
	}
}

func TestSectionStarts(t *testing.T) {
	curve := hilbert.MustNew(4, 4)
	r := rand.New(rand.NewSource(3))
	db := MustBuild(curve, randRecords(r, curve, 200))
	for _, bits := range []int{0, 1, 3, 6} {
		starts := db.SectionStarts(bits)
		if len(starts) != (1<<uint(bits))+1 {
			t.Fatalf("bits=%d: %d entries", bits, len(starts))
		}
		if starts[0] != 0 || starts[len(starts)-1] != db.Len() {
			t.Fatalf("bits=%d: boundary entries %d %d", bits, starts[0], starts[len(starts)-1])
		}
		shift := uint(curve.IndexBits() - bits)
		for s := 0; s < 1<<uint(bits); s++ {
			end := bitkey.FromUint64(uint64(s) + 1).Shl(shift)
			for i := starts[s]; i < starts[s+1]; i++ {
				if !db.Key(i).Less(end) {
					t.Fatalf("bits=%d section %d: record %d beyond section end", bits, s, i)
				}
				if s > 0 {
					begin := bitkey.FromUint64(uint64(s)).Shl(shift)
					if db.Key(i).Less(begin) {
						t.Fatalf("bits=%d section %d: record %d before section start", bits, s, i)
					}
				}
			}
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	curve := hilbert.MustNew(20, 8)
	r := rand.New(rand.NewSource(4))
	db := MustBuild(curve, randRecords(r, curve, 400))
	path := filepath.Join(t.TempDir(), "db.s3db")
	if err := db.WriteFile(path, 6); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fl, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	loadAllIsRowImage(t, fl, path)
	if got.Len() != db.Len() || got.Dims() != db.Dims() {
		t.Fatalf("shape mismatch: %d/%d", got.Len(), got.Dims())
	}
	for i := 0; i < db.Len(); i++ {
		if got.Key(i) != db.Key(i) || got.ID(i) != db.ID(i) || got.TC(i) != db.TC(i) {
			t.Fatalf("record %d metadata mismatch", i)
		}
		g, w := got.FP(i), db.FP(i)
		for j := range w {
			if g[j] != w[j] {
				t.Fatalf("record %d fingerprint mismatch", i)
			}
		}
	}
}

// TestDBVisitPosIsRowIndex checks that a DB, built or loaded, reports
// every record visited over the whole curve at Pos equal to its row
// index, with that row's fields: a DB is a chunk whose record 0 is the
// database's record 0.
func TestDBVisitPosIsRowIndex(t *testing.T) {
	curve := hilbert.MustNew(20, 8)
	db := MustBuild(curve, randRecords(rand.New(rand.NewSource(9)), curve, 300))
	path := filepath.Join(t.TempDir(), "db.s3db")
	if err := db.WriteFile(path, 4); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	full := hilbert.Interval{Start: bitkey.Key{}, End: bitkey.FromUint64(1).Shl(uint(curve.IndexBits()))}
	for name, d := range map[string]*DB{"built": db, "loaded": loaded} {
		if d.Base() != 0 {
			t.Errorf("%s DB Base %d, want 0", name, d.Base())
		}
		next := 0
		if err := d.VisitIntervals([]hilbert.Interval{full}, func(rv RecordView) bool {
			if rv.Pos != next || rv.Key != d.Key(next) || rv.ID != d.ID(next) || rv.TC != d.TC(next) {
				t.Errorf("%s DB visit %d reported Pos %d (ID %d), want row %d (ID %d)", name, next, rv.Pos, rv.ID, next, d.ID(next))
				return false
			}
			next++
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if next != d.Len() {
			t.Errorf("%s DB visit reported %d of %d records", name, next, d.Len())
		}
	}
}

// loadAllIsRowImage loads fl, the database file at path, and checks that
// the DB holds the file's exact record area byte for byte, and that
// LoadAll allocated no more than one Count()×RecordSize() buffer costs
// plus 1 KiB: no decoded copy, no second layout.
func loadAllIsRowImage(t *testing.T, fl *File, path string) *DB {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rowBytes := allocated(func() { allocSink = make([]byte, fl.Count()*fl.RecordSize()) })
	var db *DB
	loaded := allocated(func() { db, err = fl.LoadAll() })
	if err != nil {
		t.Fatal(err)
	}
	// The race detector's instrumentation allocates beside the code it
	// watches, so the bound holds only in a plain build.
	if !raceEnabled && loaded > rowBytes+1024 {
		t.Errorf("LoadAll allocated %d bytes, %.1f B/record, for %d records of %d bytes: want at most %d + 1 KiB",
			loaded, float64(loaded)/float64(fl.Count()), fl.Count(), fl.RecordSize(), rowBytes)
	}
	if area := raw[fl.dataOff : fl.dataOff+fl.RecordBytes()]; !bytes.Equal(db.buf, area) {
		t.Errorf("LoadAll's rows differ from the file's exact record area")
	}
	return db
}

// allocSink keeps a measured allocation on the heap.
var allocSink []byte

// allocated returns the heap bytes f allocates, as the allocator sizes
// them. Nothing else may allocate meanwhile.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func TestFileSectionsAndChunks(t *testing.T) {
	curve := hilbert.MustNew(8, 6)
	r := rand.New(rand.NewSource(5))
	db := MustBuild(curve, randRecords(r, curve, 600))
	path := filepath.Join(t.TempDir(), "db.s3db")
	if err := db.WriteFile(path, 8); err != nil {
		t.Fatal(err)
	}
	fl, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	if fl.Count() != 600 || fl.SectionBits() != 8 {
		t.Fatalf("Count=%d SectionBits=%d", fl.Count(), fl.SectionBits())
	}
	// Coarser partitions must agree with DB.SectionStarts.
	for _, bits := range []int{0, 3, 8} {
		starts := db.SectionStarts(bits)
		total := 0
		for s := 0; s < 1<<uint(bits); s++ {
			lo, hi := fl.SectionRecordRange(bits, s)
			if lo != starts[s] || hi != starts[s+1] {
				t.Fatalf("bits=%d section %d: [%d,%d) want [%d,%d)", bits, s, lo, hi, starts[s], starts[s+1])
			}
			ch, err := fl.LoadRecords(lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			if ch.Base() != lo || ch.Len() != hi-lo {
				t.Fatalf("chunk shape: base=%d len=%d", ch.Base(), ch.Len())
			}
			for i := 0; i < ch.Len(); i++ {
				gi := ch.Base() + i
				if ch.Key(i) != db.Key(gi) || ch.ID(i) != db.ID(gi) || ch.TC(i) != db.TC(gi) {
					t.Fatalf("chunk record %d mismatch", gi)
				}
				g, w := ch.FP(i), db.FP(gi)
				for j := range w {
					if g[j] != w[j] {
						t.Fatalf("chunk fp %d mismatch", gi)
					}
				}
			}
			total += ch.Len()
		}
		if total != 600 {
			t.Fatalf("bits=%d: sections cover %d records", bits, total)
		}
	}
	// Chunk interval search agrees with the DB on a loaded chunk.
	lo, hi := fl.SectionRecordRange(0, 0)
	ch, err := fl.LoadRecords(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	iv := hilbert.Interval{Start: db.Key(100), End: db.Key(200)}
	clo, chi := ch.FindInterval(iv)
	dlo, dhi := db.FindInterval(iv)
	if clo != dlo || chi != dhi {
		t.Fatalf("chunk FindInterval [%d,%d), db [%d,%d)", clo, chi, dlo, dhi)
	}
}

func TestLoadRecordsValidation(t *testing.T) {
	curve := hilbert.MustNew(4, 4)
	db := MustBuild(curve, randRecords(rand.New(rand.NewSource(6)), curve, 10))
	path := filepath.Join(t.TempDir(), "db.s3db")
	if err := db.WriteFile(path, 2); err != nil {
		t.Fatal(err)
	}
	fl, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	if _, err := fl.LoadRecords(-1, 5); err == nil {
		t.Fatal("negative lo accepted")
	}
	if _, err := fl.LoadRecords(0, 11); err == nil {
		t.Fatal("hi beyond count accepted")
	}
	if ch, err := fl.LoadRecords(5, 5); err != nil || ch.Len() != 0 {
		t.Fatalf("empty range: %v", err)
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad")
	if err := os.WriteFile(bad, []byte("not a database"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(bad); err == nil {
		t.Fatal("garbage accepted")
	}
	short := filepath.Join(dir, "short")
	if err := os.WriteFile(short, []byte("S3"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(short); err == nil {
		t.Fatal("truncated header accepted")
	}
	if _, err := Open(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestOpenRejectsCorruptTable(t *testing.T) {
	curve := hilbert.MustNew(4, 4)
	db := MustBuild(curve, randRecords(rand.New(rand.NewSource(7)), curve, 20))
	path := filepath.Join(t.TempDir(), "db.s3db")
	if err := db.WriteFile(path, 2); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the first section table entry (must be 0).
	data[28] = 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("corrupt section table accepted")
	}
}

func TestWriteFileValidation(t *testing.T) {
	curve := hilbert.MustNew(4, 4)
	db := MustBuild(curve, nil)
	if err := db.WriteFile(filepath.Join(t.TempDir(), "x"), -1); err == nil {
		t.Fatal("negative sectionBits accepted")
	}
	if err := db.WriteFile(filepath.Join(t.TempDir(), "x"), 17); err == nil {
		t.Fatal("oversized sectionBits accepted")
	}
}
