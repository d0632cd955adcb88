package store

import (
	"math/rand"
	"sort"
	"testing"

	"s3cbcd/internal/hilbert"
)

// BenchmarkFindRun is the run search of one resident statistical
// refinement: a seeded 100 k-record database on the paper's curve
// (D=20, K=8) and fixed plan-like queries of 128 depth-20 blocks, half
// holding a stored key and half anywhere on the curve, each located with
// the search resuming where the previous run ended.
func BenchmarkFindRun(b *testing.B) {
	const records, depth, blocks, queries = 100_000, 20, 128, 64
	curve := hilbert.MustNew(20, 8)
	r := rand.New(rand.NewSource(42))
	db := MustBuild(curve, randRecords(r, curve, records))
	shift := uint(curve.IndexBits() - depth)
	plans := make([][]hilbert.Run, queries)
	for q := range plans {
		bs := make([]uint64, 0, blocks)
		for i := 0; i < blocks; i++ {
			block := r.Uint64() & (1<<depth - 1)
			if i%2 == 0 {
				block = db.Key(r.Intn(db.Len())).Shr(shift).Uint64()
			}
			bs = append(bs, block)
		}
		sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
		var runs []hilbert.Run
		for i, block := range bs {
			if i == 0 || block != bs[i-1] {
				runs = hilbert.AppendBlock(runs, block)
			}
		}
		plans[q] = runs
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := 0
		for _, run := range plans[i%queries] {
			lo, hi := db.FindRun(from, run, shift)
			findSink += hi - lo
			from = hi
		}
	}
}

var findSink int
