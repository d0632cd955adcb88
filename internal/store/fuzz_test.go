package store

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"s3cbcd/internal/hilbert"
)

// FuzzOpen feeds arbitrary bytes to the file parser: it must never panic
// and must never return a File whose advertised geometry is unusable.
func FuzzOpen(f *testing.F) {
	// Seed corpus: a valid file, the same with a legacy shard manifest,
	// truncations, and noise.
	curve := hilbert.MustNew(4, 4)
	db := MustBuild(curve, randRecords(rand.New(rand.NewSource(1)), curve, 8))
	dir := f.TempDir()
	valid := filepath.Join(dir, "valid.s3db")
	if err := db.WriteFile(valid, 2); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(valid)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add(data[:20])
	AddShardManifest(f, valid, 0, 3, 8)
	if data, err = os.ReadFile(valid); err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add([]byte("S3DB"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, blob []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.s3db")
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Skip()
		}
		fl, err := Open(path)
		if err != nil {
			return // rejection is the expected outcome for garbage
		}
		defer fl.Close()
		// Anything Open accepts must behave: loading a record prefix
		// either succeeds or errors, never panics.
		n := fl.Count()
		if n > 16 {
			n = 16
		}
		if ch, err := fl.LoadRecords(0, n); err == nil {
			// The chunk is the file's bytes: every accessor and the in-place
			// key search (over keys no writer sorted) must stay in bounds.
			depth := min(fl.Curve().IndexBits(), hilbert.MaxDepth)
			shift := uint(fl.Curve().IndexBits() - depth)
			for i := 0; i < ch.Len(); i++ {
				b := flatAt(ch, i).key.Shr(shift).Uint64()
				ch.FindRun(i/2, hilbert.Run{Lo: b, Hi: b + 1}, shift)
			}
			ch.FindRun(0, hilbert.Run{Lo: 0, Hi: 1 << depth}, shift)
		}
	})
}
