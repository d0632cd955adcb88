package cbcd

import (
	"testing"

	"s3cbcd/internal/fingerprint"
	"s3cbcd/internal/vidsim"
)

// TestParallelSearchMatchesSerial runs the same detection serially and
// with 4 workers and requires byte-identical voting candidates.
func TestParallelSearchMatchesSerial(t *testing.T) {
	refs := refCorpus(4, 180)
	serial := buildDetector(t, refs, DefaultConfig())
	pcfg := DefaultConfig()
	pcfg.Workers = 4
	in := NewIndexer(pcfg)
	for i, seq := range refs {
		in.AddSequence(uint32(i+1), seq)
	}
	parallel, err := in.Build()
	if err != nil {
		t.Fatal(err)
	}

	clip := clip(refs[1], 30, 150)
	locals := fingerprint.Extract(clip, serial.Config().Fingerprint)
	a, err := serial.SearchLocals(locals)
	if err != nil {
		t.Fatal(err)
	}
	b, err := parallel.SearchLocals(locals)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("candidate counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].TC != b[i].TC || len(a[i].Matches) != len(b[i].Matches) {
			t.Fatalf("candidate %d differs: %d vs %d matches", i, len(a[i].Matches), len(b[i].Matches))
		}
		for j := range a[i].Matches {
			if a[i].Matches[j] != b[i].Matches[j] {
				t.Fatalf("candidate %d match %d differs", i, j)
			}
		}
	}
	// End-to-end detections agree too.
	da, err := serial.DetectClip(clip)
	if err != nil {
		t.Fatal(err)
	}
	db, err := parallel.DetectClip(clip)
	if err != nil {
		t.Fatal(err)
	}
	if len(da) != len(db) || (len(da) > 0 && (da[0].ID != db[0].ID || da[0].Votes != db[0].Votes)) {
		t.Fatalf("detections differ: %+v vs %+v", da, db)
	}
}

// TestWorkersSearchMatchesSerial repeats the comparison on another clip
// at a worker count that does not divide the candidates evenly: the
// detector routes per-fingerprint queries through the shared query
// engine, whose answers must not depend on how they are spread over
// goroutines.
func TestWorkersSearchMatchesSerial(t *testing.T) {
	refs := refCorpus(4, 180)
	serial := buildDetector(t, refs, DefaultConfig())
	scfg := DefaultConfig()
	scfg.Workers = 3
	in := NewIndexer(scfg)
	for i, seq := range refs {
		in.AddSequence(uint32(i+1), seq)
	}
	sharded, err := in.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := sharded.Engine().Workers(); got != 3 {
		t.Fatalf("detector engine has %d workers, want 3", got)
	}

	clip := clip(refs[2], 20, 140)
	locals := fingerprint.Extract(clip, serial.Config().Fingerprint)
	a, err := serial.SearchLocals(locals)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sharded.SearchLocals(locals)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("candidate counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].TC != b[i].TC || len(a[i].Matches) != len(b[i].Matches) {
			t.Fatalf("candidate %d differs: %d vs %d matches", i, len(a[i].Matches), len(b[i].Matches))
		}
		for j := range a[i].Matches {
			if a[i].Matches[j] != b[i].Matches[j] {
				t.Fatalf("candidate %d match %d differs", i, j)
			}
		}
	}
}

// TestSpatialVotingEndToEnd enables the spatial extension on real video:
// a resized copy must still be detected, with the fitted scale close to
// the resize factor.
func TestSpatialVotingEndToEnd(t *testing.T) {
	refs := refCorpus(4, 200)
	cfg := DefaultConfig()
	cfg.Vote.SpatialTolerance = 6
	det := buildDetector(t, refs, cfg)
	c := vidsim.ApplySeq(vidsim.Resize{Scale: 0.8}, clip(refs[0], 40, 160))
	dets, err := det.DetectClip(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(dets) == 0 || dets[0].ID != 1 {
		t.Fatalf("resized copy not detected with spatial voting: %+v", dets)
	}
	if dets[0].ScaleX < 0.7 || dets[0].ScaleX > 0.9 {
		t.Fatalf("fitted scale %v, want ~0.8", dets[0].ScaleX)
	}
	if dets[0].Votes > dets[0].TemporalVotes {
		t.Fatalf("spatial votes %d exceed temporal %d", dets[0].Votes, dets[0].TemporalVotes)
	}
}
