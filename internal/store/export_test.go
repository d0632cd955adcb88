package store

// Helpers shared by the in-package tests and the external store_test
// package.

import (
	"encoding/binary"
	"os"
	"testing"
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
