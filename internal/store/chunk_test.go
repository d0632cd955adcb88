package store

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
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

// keyWidthCurves spans the stored key widths the in-place search must
// handle, 2 to 32 bytes: inside one word, one word exactly, a word and a
// byte, two words, the paper's 20 bytes and four words holding 255 bits.
// For some the one-past-the-curve key fits the key width, for others it
// does not.
// The first two, 2 and 3 key bytes, get 20 random cases each; the rest 8.
var keyWidthCurves = []struct{ dims, order, cases int }{
	{3, 5, 20}, {6, 4, 20}, {8, 8, 8}, {9, 8, 8}, {16, 8, 8}, {20, 8, 8}, {51, 5, 8},
}

// TestChunkViewMatchesDB checks the row image against an oracle that
// shares none of its code: the records sorted by their encoded key and
// identity, and interval ranges counted by a linear scan of the sorted
// keys. For seeded random databases on every curve of keyWidthCurves,
// the built DB and the chunks of its file written in every format
// version (1 and 3 synthesized, 2 plain, 4 with lean and code areas)
// must hold the oracle's records: every accessor of the DB, of an exact
// chunk and of a lean chunk over a random record range. Their plain and
// from-hinted interval searches must equal the oracle's range clipped to
// the chunk — over intervals that select nothing, one record, a
// duplicated key's whole run, records straddling either chunk end, and
// that start at 0 or end one past the curve.
func TestChunkViewMatchesDB(t *testing.T) {
	for _, shape := range keyWidthCurves {
		checkChunkViewMatchesDB(t, hilbert.MustNew(shape.dims, shape.order), shape.cases)
	}
}

func checkChunkViewMatchesDB(t *testing.T, curve *hilbert.Curve, cases int) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		recs := randRecords(r, curve, 1+r.Intn(300))
		for i := range recs {
			recs[i].X, recs[i].Y = uint16(r.Intn(1<<16)), uint16(r.Intn(1<<16))
			if i > 0 && r.Intn(4) == 0 {
				recs[i].FP = recs[r.Intn(i)].FP // duplicate a key
			}
		}
		want := sortedViews(curve, recs)
		db := MustBuild(curve, recs)
		n := db.Len()
		ok := chunkEqualsViews(t, &db.Chunk, want, 0, n, true, true) &&
			chunkSearchEqualsOracle(t, r, &db.Chunk, curve, want, 0, n)
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
		AddShardManifest(t, paths[fileVersionV3], 0, uint64(n/2), uint64(n))

		for v := fileVersionV1; v <= fileVersion; v++ {
			fl, err := Open(paths[v])
			if err != nil {
				t.Fatal(err)
			}
			if fl.Version() != v {
				t.Fatalf("fixture %d opened as version %d", v, fl.Version())
			}
			lo := r.Intn(n)
			hi := lo + r.Intn(n-lo+1)
			loads := []func(int, int) (*Chunk, error){fl.LoadRecords}
			if fl.HasCodec() {
				loads = append(loads, fl.LoadLean)
			}
			for k, load := range loads {
				for _, rng := range [][2]int{{lo, hi}, {0, n}} {
					ch, err := load(rng[0], rng[1])
					if err != nil {
						t.Fatal(err)
					}
					if !chunkEqualsViews(t, ch, want, rng[0], rng[1], k == 0, v >= fileVersionV2) ||
						!chunkSearchEqualsOracle(t, r, ch, curve, want, rng[0], rng[1]) {
						t.Logf("seed %d curve (%d,%d) version %d lean %v chunk [%d,%d)",
							seed, curve.Dims(), curve.Order(), v, k == 1, rng[0], rng[1])
						ok = false
					}
				}
			}
			fl.Close()
		}
		return ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: cases, Rand: rand.New(rand.NewSource(16))}); err != nil {
		t.Fatal(err)
	}
}

// sortedViews returns recs as the records of a database must hold them:
// ascending by Hilbert key, ties by (ID, TC, X, Y), Pos their index.
func sortedViews(curve *hilbert.Curve, recs []Record) []RecordView {
	views := make([]RecordView, len(recs))
	pt := make([]uint32, curve.Dims())
	for i, rec := range recs {
		for j, b := range rec.FP {
			pt[j] = uint32(b)
		}
		views[i] = RecordView{Key: curve.Encode(pt), FP: rec.FP, ID: rec.ID, TC: rec.TC, X: rec.X, Y: rec.Y}
	}
	sort.Slice(views, func(a, b int) bool {
		va, vb := &views[a], &views[b]
		if c := va.Key.Cmp(vb.Key); c != 0 {
			return c < 0
		}
		if va.ID != vb.ID {
			return va.ID < vb.ID
		}
		if va.TC != vb.TC {
			return va.TC < vb.TC
		}
		if va.X != vb.X {
			return va.X < vb.X
		}
		return va.Y < vb.Y
	})
	for i := range views {
		views[i].Pos = i
	}
	return views
}

// chunkEqualsViews checks every accessor of ch, the records [lo, hi) of
// a database, against the oracle's views; fps and xy say whether the
// chunk's layout stores fingerprints and positions.
func chunkEqualsViews(t *testing.T, ch *Chunk, views []RecordView, lo, hi int, fps, xy bool) bool {
	t.Helper()
	if ch.Base() != lo || ch.Len() != hi-lo {
		t.Errorf("chunk Base %d Len %d, want %d and %d", ch.Base(), ch.Len(), lo, hi-lo)
		return false
	}
	for i := 0; i < ch.Len(); i++ {
		want := views[lo+i]
		if !fps {
			want.FP = nil
		}
		if !xy {
			want.X, want.Y = 0, 0
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

// chunkSearchEqualsOracle compares the chunk's in-place searches with a
// linear count over the oracle's sorted keys, clipped to the chunk's
// record range [lo, hi).
func chunkSearchEqualsOracle(t *testing.T, r *rand.Rand, ch *Chunk, curve *hilbert.Curve, views []RecordView, lo, hi int) bool {
	t.Helper()
	bitsN := uint(curve.IndexBits())
	pastCurve := bitkey.FromUint64(1).Shl(bitsN)
	keyOf := func(i int) bitkey.Key { return views[min(max(i, 0), len(views)-1)].Key }
	randKey := func() bitkey.Key {
		return bitkey.Key{r.Uint64(), r.Uint64(), r.Uint64(), r.Uint64()}.Shr(bitkey.MaxBits - bitsN)
	}
	// Sorted cut points: 0, keys around both chunk ends, random stored
	// keys and their successors, random keys, one past the curve.
	cuts := []bitkey.Key{bitkey.Zero, keyOf(lo - 1), keyOf(lo), keyOf(lo).Inc(),
		keyOf(hi - 1), keyOf(hi - 1).Inc(), keyOf(hi), pastCurve}
	for i := 0; i < 12; i++ {
		k := views[r.Intn(len(views))].Key
		cuts = append(cuts, k, k.Inc(), randKey())
	}
	sort.Slice(cuts, func(a, b int) bool { return cuts[a].Less(cuts[b]) })
	// below counts the stored keys below k: the oracle's lower bound.
	below := func(k bitkey.Key) int {
		n := 0
		for _, v := range views {
			if v.Key.Less(k) {
				n++
			}
		}
		return n
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
			wlo, whi := clip(below(iv.Start)), clip(below(iv.End))
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
