package s3

// The 500k-fingerprint corpus the root-package bench_*_test.go files
// share. (The end-to-end numbers come from bench/, see BENCHMARK.json.)

import (
	"sync"
	"testing"

	"s3cbcd/internal/core"
	"s3cbcd/internal/experiments"
	"s3cbcd/internal/fingerprint"
	"s3cbcd/internal/hilbert"
	"s3cbcd/internal/store"
)

// corpusBenchDB caches the large corpus across benchmarks in one run.
var corpusBenchDB struct {
	once    sync.Once
	db      *store.DB
	ix      *core.Index
	queries [][]byte
}

const (
	corpusBenchRecords = 500_000
	corpusBenchQueries = 192
	corpusBenchSigma   = 18.0
	corpusBenchAlpha   = 0.8
)

func sharedCorpusDB(tb testing.TB) (*store.DB, *core.Index, [][]byte) {
	tb.Helper()
	corpusBenchDB.once.Do(func() {
		curve := hilbert.MustNew(fingerprint.D, 8)
		db, err := store.Build(curve, experiments.FPCorpus(corpusBenchRecords, 1))
		if err != nil {
			panic(err)
		}
		ix, err := core.NewIndex(db, 0)
		if err != nil {
			panic(err)
		}
		queries, _ := experiments.DistortedQueries(db, corpusBenchQueries, corpusBenchSigma, 2)
		corpusBenchDB.db, corpusBenchDB.ix, corpusBenchDB.queries = db, ix, queries
	})
	return corpusBenchDB.db, corpusBenchDB.ix, corpusBenchDB.queries
}

func corpusBenchQuery() StatQuery {
	return StatQuery{Alpha: corpusBenchAlpha, Model: IsoNormal{D: fingerprint.D, Sigma: corpusBenchSigma}}
}
