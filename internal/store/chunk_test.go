package store

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"s3cbcd/internal/bitkey"
	"s3cbcd/internal/hilbert"
)

// writeV1 rewrites a version-2 file as version 1: same header and
// section table, every record without its trailing x, y. No writer
// produces the pre-position layout any more; readers still accept it.
func writeV1(t *testing.T, v2path string, curve *hilbert.Curve, sectionBits int) string {
	t.Helper()
	raw, err := os.ReadFile(v2path)
	if err != nil {
		t.Fatal(err)
	}
	head := 28 + 8*(1<<uint(sectionBits)+1)
	out := append([]byte(nil), raw[:head]...)
	binary.LittleEndian.PutUint32(out[4:], fileVersionV1)
	size := recordSize(curve, fileVersionV2)
	for off := head; off < len(raw); off += size {
		out = append(out, raw[off:off+size-4]...)
	}
	path := filepath.Join(t.TempDir(), "v1.s3db")
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestChunkViewMatchesColumns checks the raw-image Chunk against an
// oracle that shares none of its code: the in-memory DB's decoded
// columns and DB.FindInterval. For seeded random databases written in
// every format version (1 and 3 synthesized, 2 plain, 4 with lean and
// code areas), on a curve whose one-past-the-end key fits the stored
// key width and one where it does not, every accessor of an exact and a
// lean chunk over a random record range equals the DB's column, and
// plain and from-hinted interval searches equal the DB's range clipped
// to the chunk — over intervals that select nothing, one record, a
// duplicated key's whole run, records straddling either chunk end, and
// that start at 0 or end one past the curve.
func TestChunkViewMatchesColumns(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		curve := hilbert.MustNew(6, 4) // 24 index bits: 2^24 overflows the 3 key bytes
		if seed&1 == 0 {
			curve = hilbert.MustNew(3, 5) // 15 index bits: 2^15 fits the 2 key bytes
		}
		recs := randRecords(r, curve, 1+r.Intn(300))
		for i := range recs {
			recs[i].X, recs[i].Y = uint16(r.Intn(1<<16)), uint16(r.Intn(1<<16))
			if i > 0 && r.Intn(4) == 0 {
				recs[i].FP = recs[r.Intn(i)].FP // duplicate a key
			}
		}
		db := MustBuild(curve, recs)
		const sectionBits = 3
		dir := t.TempDir()
		paths := make([]string, fileVersion+1)
		for v, opt := range []WriteOptions{
			fileVersionV2: {SectionBits: sectionBits},
			fileVersionV3: {SectionBits: sectionBits},
			fileVersionV4: {SectionBits: sectionBits, Sketch: true, Codec: true},
		} {
			if v < fileVersionV2 {
				continue
			}
			paths[v] = filepath.Join(dir, string(rune('0'+v))+".s3db")
			if err := db.WriteFileOpts(paths[v], opt); err != nil {
				t.Fatal(err)
			}
		}
		paths[fileVersionV1] = writeV1(t, paths[fileVersionV2], curve, sectionBits)
		AddShardManifest(t, paths[fileVersionV3], 0, uint64(db.Len()/2), uint64(db.Len()))

		ok := true
		for v := fileVersionV1; v <= fileVersion; v++ {
			fl, err := Open(paths[v])
			if err != nil {
				t.Fatal(err)
			}
			if fl.Version() != v {
				t.Fatalf("fixture %d opened as version %d", v, fl.Version())
			}
			lo := r.Intn(db.Len())
			hi := lo + r.Intn(db.Len()-lo+1)
			loads := []func(int, int) (*Chunk, error){fl.LoadRecords}
			if fl.HasCodec() {
				loads = append(loads, fl.LoadLean)
			}
			for k, load := range loads {
				for _, rng := range [][2]int{{lo, hi}, {0, db.Len()}} {
					ch, err := load(rng[0], rng[1])
					if err != nil {
						t.Fatal(err)
					}
					if !chunkEqualsDB(t, ch, db, rng[0], rng[1], k == 0, v >= fileVersionV2) ||
						!chunkSearchEqualsDB(t, r, ch, db, rng[0], rng[1]) {
						t.Logf("seed %d version %d lean %v chunk [%d,%d)", seed, v, k == 1, rng[0], rng[1])
						ok = false
					}
				}
			}
			fl.Close()
		}
		return ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(16))}); err != nil {
		t.Fatal(err)
	}
}

func chunkEqualsDB(t *testing.T, ch *Chunk, db *DB, lo, hi int, fps, xy bool) bool {
	t.Helper()
	if ch.Base != lo || ch.Len() != hi-lo {
		t.Errorf("chunk Base %d Len %d, want %d and %d", ch.Base, ch.Len(), lo, hi-lo)
		return false
	}
	for i := 0; i < ch.Len(); i++ {
		want := RecordView{Pos: lo + i, Key: db.Key(lo + i), ID: db.ID(lo + i), TC: db.TC(lo + i)}
		if fps {
			want.FP = db.FP(lo + i)
		}
		if xy {
			want.X, want.Y = db.X(lo+i), db.Y(lo+i)
		}
		got := ch.view(i)
		if got.Pos != want.Pos || got.Key != want.Key || got.ID != want.ID || got.TC != want.TC ||
			got.X != want.X || got.Y != want.Y || !bytes.Equal(got.FP, want.FP) || (got.FP == nil) != (want.FP == nil) {
			t.Errorf("record %d: view %+v, want %+v", i, got, want)
			return false
		}
		if ch.Key(i) != want.Key || !bytes.Equal(ch.FP(i), want.FP) || ch.ID(i) != want.ID ||
			ch.TC(i) != want.TC || ch.X(i) != want.X || ch.Y(i) != want.Y {
			t.Errorf("record %d: accessors disagree with the view", i)
			return false
		}
	}
	return true
}

// chunkSearchEqualsDB compares the chunk's in-place searches with the
// DB's decoded-key search clipped to the chunk's record range.
func chunkSearchEqualsDB(t *testing.T, r *rand.Rand, ch *Chunk, db *DB, lo, hi int) bool {
	t.Helper()
	pastCurve := bitkey.FromUint64(1).Shl(uint(db.Curve().IndexBits()))
	keyOf := func(i int) bitkey.Key { return db.Key(min(max(i, 0), db.Len()-1)) }
	// Sorted cut points: 0, keys around both chunk ends, random stored
	// keys and their successors, random keys, one past the curve.
	cuts := []bitkey.Key{bitkey.Zero, keyOf(lo - 1), keyOf(lo), keyOf(lo).Inc(),
		keyOf(hi - 1), keyOf(hi - 1).Inc(), keyOf(hi), pastCurve}
	for i := 0; i < 12; i++ {
		k := db.Key(r.Intn(db.Len()))
		cuts = append(cuts, k, k.Inc(), bitkey.FromUint64(r.Uint64()%pastCurve.Uint64()))
	}
	for i := 1; i < len(cuts); i++ {
		for j := i; j > 0 && cuts[j].Less(cuts[j-1]); j-- {
			cuts[j], cuts[j-1] = cuts[j-1], cuts[j]
		}
	}
	clip := func(i int) int { return min(max(i, lo), hi) - lo }
	ok := true
	// Every pair of cut points is an interval (equal cuts select nothing);
	// consecutive ones are sorted and disjoint, so they also drive the
	// from-hinted walk.
	from := 0
	for a := 0; a < len(cuts); a++ {
		for b := a; b < len(cuts); b++ {
			iv := hilbert.Interval{Start: cuts[a], End: cuts[b]}
			dlo, dhi := db.FindInterval(iv)
			wlo, whi := clip(dlo), clip(dhi)
			if glo, ghi := ch.FindInterval(iv); glo != wlo || ghi != whi {
				t.Errorf("FindInterval [%v,%v) = [%d,%d), want [%d,%d)", iv.Start, iv.End, glo, ghi, wlo, whi)
				ok = false
			}
			if b == a+1 {
				if glo, ghi := ch.FindIntervalFrom(from, iv); glo != wlo || ghi != whi {
					t.Errorf("FindIntervalFrom(%d) [%v,%v) = [%d,%d), want [%d,%d)", from, iv.Start, iv.End, glo, ghi, wlo, whi)
					ok = false
				}
				from = whi
			}
		}
	}
	return ok
}
