package store

import (
	"math/rand"
	"sort"
	"testing"

	"s3cbcd/internal/bitkey"
	"s3cbcd/internal/hilbert"
)

// BenchmarkFindIntervalFrom is the interval search of one resident
// statistical refinement: a seeded 100 k-record database on the paper's
// curve (D=20, K=8) and fixed plan-like queries of 128 depth-20 blocks,
// half holding a stored key and half anywhere on the curve, each located
// with the search resuming where the previous block ended.
func BenchmarkFindIntervalFrom(b *testing.B) {
	const records, depth, blocks, queries = 100_000, 20, 128, 64
	curve := hilbert.MustNew(20, 8)
	r := rand.New(rand.NewSource(42))
	db := MustBuild(curve, randRecords(r, curve, records))
	shift := uint(curve.IndexBits() - depth)
	plans := make([][]hilbert.Interval, queries)
	for q := range plans {
		ivs := make([]hilbert.Interval, 0, blocks)
		for i := 0; i < blocks; i++ {
			block := r.Uint64() & (1<<depth - 1)
			if i%2 == 0 {
				block = db.Key(r.Intn(db.Len())).Shr(shift).Uint64()
			}
			start := bitkey.FromUint64(block).Shl(shift)
			ivs = append(ivs, hilbert.Interval{Start: start, End: start.AddPow2(shift)})
		}
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].Start.Less(ivs[j].Start) })
		plans[q] = hilbert.MergeIntervals(ivs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := 0
		for _, iv := range plans[i%queries] {
			lo, hi := db.FindIntervalFrom(from, iv)
			findSink += hi - lo
			from = hi
		}
	}
}

var findSink int
