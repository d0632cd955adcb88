package core

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestSearchKNNProbRetrievesAtConfidence(t *testing.T) {
	db := testDB(t, 8, 2500, 71)
	ix, _ := NewIndex(db, 0)
	r := rand.New(rand.NewSource(72))
	const sigma = 10.0
	m := IsoNormal{D: 8, Sigma: sigma}
	for _, conf := range []float64{0.5, 0.9} {
		hits, trials := 0, 150
		for i := 0; i < trials; i++ {
			q, src := distortedQuery(r, db, sigma)
			matches, stats, err := ix.SearchKNNProb(q, 10, conf, m)
			if err != nil {
				t.Fatal(err)
			}
			if stats.VisitedMass < conf {
				t.Fatalf("visited mass %v below confidence %v", stats.VisitedMass, conf)
			}
			for _, match := range matches {
				if match.Pos == src {
					hits++
					break
				}
			}
		}
		rate := float64(hits) / float64(trials)
		// The source must appear at roughly >= confidence (minus model
		// imperfection from clamping/quantization and the k cut).
		if rate < conf-0.12 {
			t.Errorf("confidence %v: retrieval rate %v", conf, rate)
		}
	}
}

func TestSearchKNNProbCheaperThanExact(t *testing.T) {
	db := testDB(t, 8, 3000, 73)
	ix, _ := NewIndex(db, 0)
	r := rand.New(rand.NewSource(74))
	q, _ := distortedQuery(r, db, 10)
	m := IsoNormal{D: 8, Sigma: 10}
	_, exactStats, err := ix.SearchKNN(q, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, probStats, err := ix.SearchKNNProb(q, 10, 0.8, m)
	if err != nil {
		t.Fatal(err)
	}
	if probStats.Scanned >= exactStats.Scanned {
		t.Fatalf("probabilistic scanned %d, exact %d — no saving", probStats.Scanned, exactStats.Scanned)
	}
}

// TestSearchKNNProbHugeK: the result heap is bounded by the database, so
// an absurd k costs nothing and returns what a sufficient k returns.
func TestSearchKNNProbHugeK(t *testing.T) {
	db := testDB(t, 6, 300, 77)
	ix, _ := NewIndex(db, 0)
	m := IsoNormal{D: 6, Sigma: 8}
	want, _, err := ix.SearchKNNProb(db.FP(5), db.Len(), 0.9, m)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := ix.SearchKNNProb(db.FP(5), 1<<40, 0.9, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("k = 2^40 returned %d matches, k = Len %d", len(got), len(want))
	}
}

func TestSearchKNNProbValidation(t *testing.T) {
	db := testDB(t, 6, 50, 75)
	ix, _ := NewIndex(db, 0)
	m := IsoNormal{D: 6, Sigma: 5}
	q := make([]byte, 6)
	if _, _, err := ix.SearchKNNProb(q, 0, 0.8, m); err == nil {
		t.Error("k=0 accepted")
	}
	if _, _, err := ix.SearchKNNProb(q, 3, 0, m); err == nil {
		t.Error("confidence=0 accepted")
	}
	if _, _, err := ix.SearchKNNProb(q, 3, 1.5, m); err == nil {
		t.Error("confidence>1 accepted")
	}
	if _, _, err := ix.SearchKNNProb(q, 3, 0.8, nil); err == nil {
		t.Error("nil model accepted")
	}
	if _, _, err := ix.SearchKNNProb(make([]byte, 2), 3, 0.8, m); err == nil {
		t.Error("short query accepted")
	}
}
