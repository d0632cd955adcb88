package s3

import (
	"context"
	"reflect"
	"testing"

	"s3cbcd/internal/core"
	"s3cbcd/internal/experiments"
	"s3cbcd/internal/fingerprint"
	"s3cbcd/internal/hilbert"
	"s3cbcd/internal/store"
)

// TestColdSketchCodecHalveUncachedBytes keeps the two gates of the
// retired cold-tier sweep as a plain test: over a 20k-record corpus
// sealed into a cold segment and served without a block cache, one
// statistical plus one ε-range search per query read, with the segment
// sketch and the quantized codec on, at most half the disk bytes of the
// plain exact-record path, at identical answers, and both reducers fire
// (blocks skipped, candidates rejected). Throughput is for bench/'s
// cold_mixed workload to measure.
func TestColdSketchCodecHalveUncachedBytes(t *testing.T) {
	const (
		records = 20_000
		queries = 48
		eps     = 24 // tight enough that codes reject most range candidates
	)
	curve := hilbert.MustNew(fingerprint.D, 8)
	recs := experiments.FPCorpus(records, 1)
	db, err := store.Build(curve, recs)
	if err != nil {
		t.Fatal(err)
	}
	qs, _ := experiments.DistortedQueries(db, queries, corpusBenchSigma, 2)
	sq := core.StatQuery{Alpha: corpusBenchAlpha, Model: core.IsoNormal{D: fingerprint.D, Sigma: corpusBenchSigma}}
	ctx := context.Background()

	// serve seals the corpus, reopens it cold and uncached, and returns every answer, the disk bytes the searches read
	// and the index's final stats.
	serve := func(reducers bool) ([][]core.Match, int64, core.LiveStats) {
		dir := t.TempDir()
		opt := core.LiveOptions{ColdRecords: 1, Sketch: reducers, ColdCodec: reducers}
		li, err := core.OpenLiveIndex(curve, dir, opt)
		if err != nil {
			t.Fatal(err)
		}
		if err := li.Ingest(recs); err != nil {
			t.Fatal(err)
		}
		if err := li.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := li.Close(); err != nil {
			t.Fatal(err)
		}
		cfs := store.NewCountingFS(store.OSFS)
		opt.FS, opt.Cache = cfs, store.NewBlockCache(0)
		if li, err = core.OpenLiveIndex(curve, dir, opt); err != nil {
			t.Fatal(err)
		}
		defer li.Close()
		if st := li.Stats(); st.ColdSegments == 0 || st.ColdSegments != st.Segments {
			t.Fatalf("%d of %d segments opened cold", st.ColdSegments, st.Segments)
		}
		before := cfs.ReadBytes()
		var answers [][]core.Match
		for _, q := range qs {
			stat, _, err := li.SearchStat(ctx, q, sq)
			if err != nil {
				t.Fatal(err)
			}
			rng, _, err := li.SearchRange(ctx, q, eps)
			if err != nil {
				t.Fatal(err)
			}
			answers = append(answers, stat, rng)
		}
		return answers, cfs.ReadBytes() - before, li.Stats()
	}

	plainAnswers, plainBytes, _ := serve(false)
	answers, bytes, st := serve(true)
	if !reflect.DeepEqual(plainAnswers, answers) {
		t.Fatal("sketch+codec answers differ from the plain cold path")
	}
	if bytes*2 > plainBytes {
		t.Errorf("sketch+codec read %d bytes uncached, want at most half of the plain path's %d", bytes, plainBytes)
	}
	if st.SkippedBlocks == 0 || st.QuantizedRejects == 0 {
		t.Errorf("sketch+codec run skipped %d blocks and rejected %d candidates: a reducer is not firing",
			st.SkippedBlocks, st.QuantizedRejects)
	}
	t.Logf("uncached disk bytes per query: plain %d, sketch+codec %d", plainBytes/queries, bytes/queries)
}
