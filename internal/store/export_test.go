package store

// Helpers shared by the in-package tests and the external store_test
// package.

import (
	"encoding/binary"
	"math/rand"
	"os"
	"sort"
	"sync"
	"testing"

	"s3cbcd/internal/hilbert"
)

// AddShardManifest rewrites the database file at path — version 2 or 4,
// as WriteFile and WriteFileOpts lay it out — to carry the legacy shard
// manifest whose entries are starts (a well-formed one runs from 0 to
// the record count without decreasing). No writer emits that section any
// more; readers still accept it. A version-2 file becomes version 3, a
// version-4 file gets its shard flag set, and the section goes where the
// format puts it: right after the section table.
func AddShardManifest(t testing.TB, path string, starts ...uint64) {
	t.Helper()
	image, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const hdr, versionOff, secBitsOff = 28, 4, 24
	head := hdr + 8*(1<<binary.LittleEndian.Uint32(image[secBitsOff:])+1)
	if binary.LittleEndian.Uint32(image[versionOff:]) == fileVersionV2 {
		binary.LittleEndian.PutUint32(image[versionOff:], fileVersionV3)
	} else {
		image[hdr] |= byte(fileFlagShards) // the flags word follows the header
		head += 4
	}
	sec := binary.LittleEndian.AppendUint32(nil, uint32(len(starts)-1))
	for _, s := range starts {
		sec = binary.LittleEndian.AppendUint64(sec, s)
	}
	out := append(append(image[:head:head], sec...), image[head:]...)
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// PerRecord adapts a per-record callback to a span visit: fn sees every
// record of every span in order, by chunk-local index, and returning
// false stops the visit.
func PerRecord(fn func(c *Chunk, i int) bool) func(c *Chunk, lo, hi int) bool {
	return func(c *Chunk, lo, hi int) bool {
		for i := lo; i < hi; i++ {
			if !fn(c, i) {
				return false
			}
		}
		return true
	}
}

// PoisonRecycled switches on the recycling pool's test hook until tb
// ends. Every chunk handed back to the pool is overwritten with 0xA5 at
// that moment, so a reader still holding recycled memory sees garbage,
// never a plausible record. A chunk handed back that was not drawn since
// the switch, or was handed back since, fails tb: a buffer is recycled
// exactly once per draw. The returned function reports how many drawn
// chunks are not back yet. Cold reads must not run in other goroutines
// while the switch flips.
func PoisonRecycled(tb testing.TB) (outstanding func() int) {
	var mu sync.Mutex
	drawn := map[*Chunk]bool{}
	chunkPoolHook = func(ch *Chunk, put bool) {
		mu.Lock()
		defer mu.Unlock()
		if !put {
			drawn[ch] = true
			return
		}
		if !drawn[ch] {
			tb.Errorf("chunk of %d bytes recycled without a draw since its last recycle", cap(ch.buf))
		}
		delete(drawn, ch)
		buf := ch.buf[:cap(ch.buf)]
		for i := range buf {
			buf[i] = 0xA5
		}
	}
	tb.Cleanup(func() { chunkPoolHook = nil })
	return func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(drawn)
	}
}

// RandRuns returns up to n random runs at depth, sorted and merged.
func RandRuns(r *rand.Rand, depth, n int) []hilbert.Run {
	end := uint64(1) << uint(depth)
	runs := make([]hilbert.Run, 0, n)
	for i := 0; i < n; i++ {
		a, b := r.Uint64()%end, r.Uint64()%(end+1)
		if a > b {
			a, b = b, a
		}
		if a == b {
			b++
		}
		runs = append(runs, hilbert.Run{Lo: a, Hi: b})
	}
	return mergeRuns(runs)
}

// mergeRuns sorts runs and merges the overlapping or adjacent ones, in
// place.
func mergeRuns(runs []hilbert.Run) []hilbert.Run {
	sort.Slice(runs, func(i, j int) bool { return runs[i].Lo < runs[j].Lo })
	out := runs[:0]
	for _, r := range runs {
		if n := len(out); n > 0 && r.Lo <= out[n-1].Hi {
			out[n-1].Hi = max(out[n-1].Hi, r.Hi)
			continue
		}
		out = append(out, r)
	}
	return out
}
