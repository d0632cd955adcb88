package store

import (
	"bytes"
	"math/rand"
	"testing"

	"s3cbcd/internal/hilbert"
)

func TestMergeEqualsRebuild(t *testing.T) {
	curve := hilbert.MustNew(8, 8)
	r := rand.New(rand.NewSource(1))
	recsA := randRecords(r, curve, 300)
	recsB := randRecords(r, curve, 450)
	a := MustBuild(curve, recsA)
	b := MustBuild(curve, recsB)
	merged, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := MustBuild(curve, append(append([]Record{}, recsA...), recsB...))
	if merged.Len() != want.Len() {
		t.Fatalf("merged %d records, want %d", merged.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		if merged.Key(i) != want.Key(i) {
			t.Fatalf("key order differs at %d", i)
		}
		// IDs may tie-break differently for equal keys; compare key
		// multisets per position only when keys are unique here.
	}
	// Sorted invariant.
	for i := 1; i < merged.Len(); i++ {
		if merged.Key(i).Cmp(merged.Key(i-1)) < 0 {
			t.Fatalf("merge broke ordering at %d", i)
		}
	}
}

func TestMergeEmptySides(t *testing.T) {
	curve := hilbert.MustNew(4, 4)
	r := rand.New(rand.NewSource(2))
	a := MustBuild(curve, randRecords(r, curve, 20))
	empty := MustBuild(curve, nil)
	m1, err := Merge(a, empty)
	if err != nil || m1.Len() != 20 {
		t.Fatalf("merge with empty: %v len=%d", err, m1.Len())
	}
	m2, err := Merge(empty, a)
	if err != nil || m2.Len() != 20 {
		t.Fatalf("empty merge: %v len=%d", err, m2.Len())
	}
	for i := 0; i < 20; i++ {
		if m1.Key(i) != a.Key(i) || m2.Key(i) != a.Key(i) {
			t.Fatalf("identity merge changed keys at %d", i)
		}
	}
}

func TestMergeIncompatible(t *testing.T) {
	a := MustBuild(hilbert.MustNew(4, 4), nil)
	b := MustBuild(hilbert.MustNew(5, 4), nil)
	if _, err := Merge(a, b); err == nil {
		t.Fatal("incompatible merge accepted")
	}
}

func TestMergePreservesPayload(t *testing.T) {
	curve := hilbert.MustNew(4, 8)
	a := MustBuild(curve, []Record{{FP: []byte{1, 2, 3, 4}, ID: 7, TC: 9, X: 11, Y: 13}})
	b := MustBuild(curve, []Record{{FP: []byte{200, 201, 202, 203}, ID: 8, TC: 10, X: 12, Y: 14}})
	m, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for i := 0; i < m.Len(); i++ {
		switch m.ID(i) {
		case 7:
			if m.TC(i) != 9 || m.X(i) != 11 || m.Y(i) != 13 {
				t.Fatalf("payload 7 corrupted")
			}
			found++
		case 8:
			if m.TC(i) != 10 || m.X(i) != 12 || m.Y(i) != 14 {
				t.Fatalf("payload 8 corrupted")
			}
			found++
		}
	}
	if found != 2 {
		t.Fatalf("found %d of 2 records", found)
	}
}

func TestFilterRemovesIdentifier(t *testing.T) {
	curve := hilbert.MustNew(6, 8)
	r := rand.New(rand.NewSource(9))
	db := MustBuild(curve, randRecords(r, curve, 200))
	victim := db.ID(50)
	out := Filter(db, func(id, _ uint32) bool { return id != victim })
	if out.Len() >= db.Len() {
		t.Fatalf("filter removed nothing (%d -> %d)", db.Len(), out.Len())
	}
	removed := 0
	for i := 0; i < db.Len(); i++ {
		if db.ID(i) == victim {
			removed++
		}
	}
	if out.Len() != db.Len()-removed {
		t.Fatalf("filtered %d, expected %d", db.Len()-out.Len(), removed)
	}
	for i := 0; i < out.Len(); i++ {
		if out.ID(i) == victim {
			t.Fatal("victim id survived")
		}
		if i > 0 && out.Key(i).Cmp(out.Key(i-1)) < 0 {
			t.Fatal("filter broke curve order")
		}
	}
	// Keep-all is identity.
	all := Filter(db, func(uint32, uint32) bool { return true })
	if all.Len() != db.Len() {
		t.Fatal("keep-all changed length")
	}
}

// Regression: Merge used to propagate a malformed database silently when
// the other input was empty — the merge loop never touched the bad
// slices, so the corruption surfaced later as an out-of-range panic in
// readers. Both inputs are now validated up front.
func TestMergeRejectsMalformedInput(t *testing.T) {
	curve := hilbert.MustNew(4, 4)
	empty := MustBuild(curve, nil)
	// One record whose row buffer is torn inside its fingerprint.
	one := MustBuild(curve, []Record{{FP: []byte{1, 2, 3, 4}}})
	bad := &DB{Chunk: one.Chunk, curve: curve}
	bad.buf = one.buf[:one.kb+3] // 3 fingerprint bytes for 1 record of dimension 4
	if _, err := Merge(bad, empty); err == nil {
		t.Fatal("Merge(bad, empty) accepted a malformed first input")
	}
	if _, err := Merge(empty, bad); err == nil {
		t.Fatal("Merge(empty, bad) accepted a malformed second input")
	}
	// A row torn off after its id must be rejected too.
	short := &DB{Chunk: one.Chunk, curve: curve}
	short.buf = one.buf[:one.kb+4+4] // tc, x and y missing
	if _, err := Merge(short, empty); err == nil {
		t.Fatal("Merge accepted a database with missing columns")
	}
	if _, err := Merge(empty, empty); err != nil {
		t.Fatalf("Merge of two empty databases failed: %v", err)
	}
}

// Merging arbitrary splits of a record set must reproduce the one-shot
// Build exactly — same records, same canonical order — including ties:
// duplicate fingerprints and full duplicate records.
func TestMergeMatchesBuildCanonically(t *testing.T) {
	curve := hilbert.MustNew(4, 4)
	r := rand.New(rand.NewSource(11))
	ids := []uint32{0, 1, 2, 255, 256, 257, 1 << 16, 1<<24 + 1}
	var recs []Record
	for i := 0; i < 200; i++ {
		fp := make([]byte, 4)
		for j := range fp {
			fp[j] = byte(r.Intn(4)) // tiny alphabet: many key collisions
		}
		// IDs of 256 and above differ from small ones in bytes past the
		// low one: a tie-break that read the little-endian ID as part of
		// the key would order 256 before 1.
		recs = append(recs, Record{FP: fp, ID: ids[r.Intn(len(ids))], TC: uint32(r.Intn(8))})
	}
	// A few exact duplicates.
	recs = append(recs, recs[0], recs[1], recs[0])
	want := MustBuild(curve, recs)
	for trial := 0; trial < 20; trial++ {
		cut := r.Intn(len(recs) + 1)
		a := MustBuild(curve, recs[:cut])
		b := MustBuild(curve, recs[cut:])
		var got *DB
		var err error
		if trial%2 == 0 {
			got, err = Merge(a, b)
		} else {
			got, err = Merge(b, a)
		}
		if err != nil {
			t.Fatal(err)
		}
		if !dbEqual(got, want) {
			t.Fatalf("trial %d (cut %d): merged database differs from one-shot build", trial, cut)
		}
	}
}

func dbEqual(a, b *DB) bool {
	return a.stride == b.stride && bytes.Equal(a.buf, b.buf)
}

func TestContainsAndCountID(t *testing.T) {
	curve := hilbert.MustNew(2, 3)
	db := MustBuild(curve, []Record{
		{FP: []byte{1, 2}, ID: 5},
		{FP: []byte{3, 4}, ID: 5},
		{FP: []byte{5, 6}, ID: 9},
	})
	if !db.ContainsID(5) || !db.ContainsID(9) || db.ContainsID(7) {
		t.Fatal("ContainsID wrong")
	}
	if db.CountID(5) != 2 || db.CountID(9) != 1 || db.CountID(7) != 0 {
		t.Fatal("CountID wrong")
	}
}
