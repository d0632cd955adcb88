package main

import (
	"bytes"
	"crypto/sha256"
	"math"
	"testing"
)

// inputsDigest hashes every byte the program under test would receive.
func inputsDigest(in *inputs) [sha256.Size]byte {
	h := sha256.New()
	for _, r := range in.Corpus.records {
		h.Write(r.FP)
	}
	write := func(rs []request) {
		for _, r := range rs {
			h.Write([]byte(r.Method + " " + r.Path + "\n"))
			h.Write(r.Body)
		}
	}
	for _, c := range in.Clients {
		write(c)
	}
	for _, s := range in.Writes {
		write([]request{s.Ingest})
		if s.Delete != nil {
			write([]request{*s.Delete})
		}
	}
	write(in.Probe)
	write(in.Retrieval)
	write(in.Script)
	var out [sha256.Size]byte
	copy(out[:], h.Sum(nil))
	return out
}

func TestGeneratorIsByteDeterministicPerSeed(t *testing.T) {
	cfg := smokeConfig()
	for _, w := range workloadNames {
		a, b := inputsDigest(genInputs(w, 7, cfg)), inputsDigest(genInputs(w, 7, cfg))
		if a != b {
			t.Errorf("%s: the same seed gave different inputs", w)
		}
		if c := inputsDigest(genInputs(w, 8, cfg)); a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs", w)
		}
	}
}

func TestWorkloadShapes(t *testing.T) {
	cfg := smokeConfig()
	for _, w := range workloadNames {
		in := genInputs(w, 3, cfg)
		if len(in.Script) != cfg.Script[w] {
			t.Errorf("%s: script has %d requests, want %d", w, len(in.Script), cfg.Script[w])
		}
		var fps int
		for _, r := range in.Probe {
			fps += len(r.Queries)
		}
		if fps != 256 {
			t.Errorf("%s: probe asks %d fingerprints, want 256", w, fps)
		}
		for _, q := range in.Probe[0].Queries {
			if q.SrcPos >= in.Served {
				t.Errorf("%s: probe query made from record %d, outside the %d served", w, q.SrcPos, in.Served)
			}
			src := in.Corpus.records[q.SrcPos]
			if src.ID != q.SrcID || src.TC != q.SrcTC {
				t.Errorf("%s: query does not remember its source record", w)
			}
		}
	}

	cold := genInputs(wlCold, 3, cfg)
	for i, r := range cold.Clients[0][:8] {
		want := kindStatBatch
		if i%2 == 1 {
			want = kindRange
		}
		if r.Kind != want {
			t.Errorf("cold_mixed request %d is %v, want %v (fixed alternation)", i, r.Kind, want)
		}
	}
	// Half of every cold batch repeats across batches (the hot set).
	seen, repeats := map[string]bool{}, 0
	for _, r := range cold.Clients[0] {
		for _, q := range r.Queries {
			if r.Kind == kindStatBatch && seen[string(q.FP)] {
				repeats++
			}
			seen[string(q.FP)] = true
		}
	}
	if repeats == 0 {
		t.Error("cold_mixed has no repeated fingerprints; the hot set is missing")
	}

	ing := genInputs(wlIngest, 3, cfg)
	if len(ing.Clients) != 1 || len(ing.Writes) != cfg.IngestBatches {
		t.Errorf("ingest_monitor: %d readers, %d write slots", len(ing.Clients), len(ing.Writes))
	}
	ids := map[uint32]bool{}
	for _, r := range ing.Corpus.records {
		ids[r.ID] = true
	}
	deletes := 0
	ingested := map[uint32]int{}
	for k, s := range ing.Writes {
		if len(s.Ingest.Records) != ingestBatchRecords {
			t.Fatalf("slot %d ingests %d records", k, len(s.Ingest.Records))
		}
		for _, r := range s.Ingest.Records {
			if ids[r.ID] {
				t.Fatalf("slot %d reuses corpus video id %d", k, r.ID)
			}
			ingested[r.ID] = k
		}
		if s.Delete != nil {
			deletes++
			if at, ok := ingested[s.Delete.ID]; !ok || at >= k {
				t.Errorf("slot %d deletes id %d, which was not ingested by an earlier slot", k, s.Delete.ID)
			}
		}
	}
	if deletes != cfg.IngestBatches/deleteEvery {
		t.Errorf("%d deletes in %d slots, want one per %d", deletes, cfg.IngestBatches, deleteEvery)
	}
	hasWrite := false
	for _, r := range ing.Script {
		hasWrite = hasWrite || r.Kind == kindIngest
	}
	if !hasWrite {
		t.Error("ingest_monitor script interleaves no ingest batch")
	}
}

func TestRequestBodiesAreTheAPIsJSON(t *testing.T) {
	q := query{FP: bytes.Repeat([]byte{7}, dims)}
	fp := "[7,7,7,7,7,7,7,7,7,7,7,7,7,7,7,7,7,7,7,7]"
	if got, want := string(statSingleRequest(q).Body), `{"fingerprint":`+fp+`,"alpha":0.8,"sigma":18}`; got != want {
		t.Errorf("single body = %s, want %s", got, want)
	}
	if got, want := string(statBatchRequest([]query{q, q}).Body), `{"fingerprints":[`+fp+`,`+fp+`],"alpha":0.8,"sigma":18}`; got != want {
		t.Errorf("batch body = %s, want %s", got, want)
	}
	if got, want := string(rangeRequest(q).Body), `{"fingerprint":`+fp+`,"epsilon":90.0675}`; got != want {
		t.Errorf("range body = %s, want %s", got, want)
	}
	rec := record{FP: q.FP, ID: 9, TC: 24}
	if got, want := string(ingestRequest([]record{rec}).Body), `{"records":[{"fingerprint":`+fp+`,"id":9,"tc":24}]}`; got != want {
		t.Errorf("ingest body = %s, want %s", got, want)
	}
	if d := deleteRequest(9); d.Method != "DELETE" || d.Path != "/video/9" {
		t.Errorf("delete = %s %s", d.Method, d.Path)
	}
}

// The range radius is a harness constant so the traffic cannot drift
// with the library; it must still be the matched-expectation radius.
func TestRangeEpsMatchesLibrary(t *testing.T) {
	if lib := libraryRangeRadius(); math.Abs(lib-rangeEps) > 0.01 {
		t.Errorf("rangeEps = %v, library's MatchedRangeRadius(20, 18, 0.8) = %v", rangeEps, lib)
	}
}
