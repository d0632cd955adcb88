package s3

// The 500k-fingerprint corpus the root-package bench_*_test.go files
// share, and BenchmarkShardedStatBatch: batch statistical search at
// several shard counts through the standard -bench machinery at the
// current GOMAXPROCS. (The end-to-end shard and fleet numbers come from
// bench/, see BENCHMARK.json.)

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"s3cbcd/internal/core"
	"s3cbcd/internal/experiments"
	"s3cbcd/internal/fingerprint"
	"s3cbcd/internal/hilbert"
	"s3cbcd/internal/store"
)

// shardBenchDB caches the large corpus across benchmarks in one run.
var shardBenchDB struct {
	once    sync.Once
	db      *store.DB
	ix      *core.Index
	queries [][]byte
}

const (
	shardBenchRecords = 500_000
	shardBenchQueries = 192
	shardBenchSigma   = 18.0
	shardBenchAlpha   = 0.8
)

func sharedShardDB(tb testing.TB) (*store.DB, *core.Index, [][]byte) {
	tb.Helper()
	shardBenchDB.once.Do(func() {
		curve := hilbert.MustNew(fingerprint.D, 8)
		db, err := store.Build(curve, experiments.FPCorpus(shardBenchRecords, 1))
		if err != nil {
			panic(err)
		}
		ix, err := core.NewIndex(db, 0)
		if err != nil {
			panic(err)
		}
		queries, _ := experiments.DistortedQueries(db, shardBenchQueries, shardBenchSigma, 2)
		shardBenchDB.db, shardBenchDB.ix, shardBenchDB.queries = db, ix, queries
	})
	return shardBenchDB.db, shardBenchDB.ix, shardBenchDB.queries
}

func shardBenchQuery() StatQuery {
	return StatQuery{Alpha: shardBenchAlpha, Model: IsoNormal{D: fingerprint.D, Sigma: shardBenchSigma}}
}

// BenchmarkShardedStatBatch reports batch throughput per shard count at
// whatever GOMAXPROCS the run uses.
func BenchmarkShardedStatBatch(b *testing.B) {
	_, ix, queries := sharedShardDB(b)
	sq := shardBenchQuery()
	for _, shards := range []int{1, 2, 4, 8} {
		eng := core.NewEngine(ix, shards, 0)
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.SearchStatBatch(context.Background(), queries, sq); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(queries))*float64(b.N)/b.Elapsed().Seconds(), "queries/s")
		})
	}
}
