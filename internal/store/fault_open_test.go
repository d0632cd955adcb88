package store_test

// Open/LoadRecords failure behaviour under injected storage faults,
// driven through faultfs: a read failing or coming up short at ANY point
// of the open sequence must yield an error — never a torn *File — and
// must never leak the descriptor; header corruption must be rejected the
// same way. This is the external-package twin of failure_test.go (which
// covers clean-filesystem corruption); here the filesystem itself
// misbehaves.

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"s3cbcd/internal/faultfs"
	"s3cbcd/internal/hilbert"
	"s3cbcd/internal/store"
)

// scriptRead returns an injector applying act to the n-th operation
// matching target (1-based, counted over matching operations only).
func scriptRead(target faultfs.Op, n int, act faultfs.Action) faultfs.Injector {
	count := 0
	return func(op faultfs.Op, _ string, _ int) faultfs.Action {
		if op != target {
			return faultfs.Pass
		}
		count++
		if count == n {
			return act
		}
		return faultfs.Pass
	}
}

// writeTestFile builds a small database file carrying a legacy shard
// manifest (so opening it reads every header section) and returns its
// path.
func writeTestFile(t *testing.T) string {
	t.Helper()
	curve := hilbert.MustNew(4, 4)
	recs := make([]store.Record, 40)
	for i := range recs {
		recs[i] = store.Record{
			FP: []byte{byte(i % 16), byte((i * 3) % 16), byte((i * 7) % 16), byte(i % 5)},
			ID: uint32(i % 4), TC: uint32(i),
		}
	}
	db, err := store.Build(curve, recs)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "db.s3db")
	if err := db.WriteFile(path, 4); err != nil {
		t.Fatal(err)
	}
	store.AddShardManifest(t, path, 0, 13, 26, 40)
	return path
}

// TestOpenFaultAtEveryRead fails (and separately truncates) each read of
// the open sequence in turn: every fault point must surface an error and
// leave no descriptor behind.
func TestOpenFaultAtEveryRead(t *testing.T) {
	path := writeTestFile(t)
	for _, act := range []faultfs.Action{faultfs.Fail, faultfs.ShortWrite} {
		for n := 1; n <= 50; n++ {
			fs := faultfs.New(store.OSFS, scriptRead(faultfs.OpRead, n, act))
			fl, err := store.OpenFS(fs, path)
			if err == nil {
				// The open sequence performs fewer than n reads: the fault
				// never fired and the file opened cleanly.
				fl.Close()
				if fs.Injected() != 0 {
					t.Fatalf("action %d, read %d: open succeeded despite an injected fault", act, n)
				}
				if lh := fs.OpenHandles(); lh != 0 {
					t.Fatalf("action %d, read %d: %d handles left after clean open+close", act, n, lh)
				}
				break
			}
			if lh := fs.OpenHandles(); lh != 0 {
				t.Fatalf("action %d, read %d: failed open leaked %d descriptors: %v", act, n, lh, err)
			}
			if n == 50 {
				t.Fatalf("action %d: open performs 50+ reads; test never saw a clean pass", act)
			}
		}
	}
}

// TestOpenFaultOnOpen covers the first possible failure: the open call
// itself. No handle exists yet, so none may be counted.
func TestOpenFaultOnOpen(t *testing.T) {
	path := writeTestFile(t)
	fs := faultfs.New(store.OSFS, scriptRead(faultfs.OpOpen, 1, faultfs.Fail))
	if _, err := store.OpenFS(fs, path); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("open with failed syscall returned %v, want ErrInjected", err)
	}
	if lh := fs.OpenHandles(); lh != 0 {
		t.Fatalf("failed open counted %d handles", lh)
	}
}

// TestLoadRecordsFaultyReadAt opens cleanly, then fails the record read:
// LoadRecords must report the error, and the file must remain usable for
// a subsequent healthy load.
func TestLoadRecordsFaultyReadAt(t *testing.T) {
	path := writeTestFile(t)
	// Open itself issues two ReadAt probes (section-table end, record-area
	// end); the third ReadAt is the LoadRecords body this test targets.
	fs := faultfs.New(store.OSFS, scriptRead(faultfs.OpReadAt, 3, faultfs.Fail))
	fl, err := store.OpenFS(fs, path)
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	if _, err := fl.LoadRecords(0, fl.Count()); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("LoadRecords with failing ReadAt returned %v, want ErrInjected", err)
	}
	// The fault was transient (first ReadAt only): the next load succeeds.
	db, err := fl.LoadAll()
	if err != nil {
		t.Fatalf("LoadAll after transient fault: %v", err)
	}
	if db.Len() != fl.Count() {
		t.Fatalf("LoadAll returned %d records, want %d", db.Len(), fl.Count())
	}
}

// TestLoadRecordsShortReadAt truncates the record read: a file shorter
// than its header promises must be reported, not silently padded.
func TestLoadRecordsShortReadAt(t *testing.T) {
	path := writeTestFile(t)
	// ReadAt #3: the first record read after open's two probes.
	fs := faultfs.New(store.OSFS, scriptRead(faultfs.OpReadAt, 3, faultfs.ShortWrite))
	fl, err := store.OpenFS(fs, path)
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	if _, err := fl.LoadRecords(0, fl.Count()); err == nil {
		t.Fatal("LoadRecords with a short ReadAt succeeded")
	}
}

// TestColdReadSeededInjector pins NewSeededReads's contract: at rate 1
// every read faults (nothing opens, nothing leaks); at rate 0 nothing
// does; and the injector never touches the write side.
func TestColdReadSeededInjector(t *testing.T) {
	path := writeTestFile(t)
	always := faultfs.NewSeededReads(store.OSFS, 1, 1.0)
	if fl, err := store.OpenFS(always, path); err == nil {
		fl.Close()
		t.Fatal("open with every read faulted succeeded")
	}
	if lh := always.OpenHandles(); lh != 0 {
		t.Fatalf("failed open leaked %d descriptors", lh)
	}

	never := faultfs.NewSeededReads(store.OSFS, 1, 0)
	fl, err := store.OpenFS(never, path)
	if err != nil {
		t.Fatalf("open at rate 0: %v", err)
	}
	defer fl.Close()
	if _, err := fl.LoadAll(); err != nil {
		t.Fatalf("LoadAll at rate 0: %v", err)
	}

	// Writes pass untouched even at rate 1: the read injector must not
	// destabilize the write path's guarantees.
	curve := hilbert.MustNew(4, 4)
	db, err := store.Build(curve, []store.Record{{FP: []byte{1, 2, 3, 4}, ID: 1, TC: 1}})
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "out.s3db")
	if err := db.WriteFileFS(always, out, 2); err != nil {
		t.Fatalf("write through a read-only injector: %v", err)
	}
}

// TestOpenHeaderCorruption flips every byte of the header and section
// table in turn. Whatever the validators decide, a failed open must not
// leak its descriptor, and magic/version damage must always fail.
func TestOpenHeaderCorruption(t *testing.T) {
	path := writeTestFile(t)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Header (28 bytes) plus the start of the section table.
	limit := 28 + 64
	if limit > len(orig) {
		limit = len(orig)
	}
	dir := t.TempDir()
	for i := 0; i < limit; i++ {
		bad := append([]byte(nil), orig...)
		bad[i] ^= 0xff
		p := filepath.Join(dir, "bad.s3db")
		if err := os.WriteFile(p, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		fs := faultfs.New(store.OSFS, nil)
		fl, err := store.OpenFS(fs, p)
		if err == nil {
			fl.Close()
			if i < 8 {
				t.Fatalf("open accepted a file with magic/version byte %d corrupted", i)
			}
		}
		if lh := fs.OpenHandles(); lh != 0 {
			t.Fatalf("byte %d corrupted: open leaked %d descriptors (err=%v)", i, lh, err)
		}
	}
}
