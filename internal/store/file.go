package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"s3cbcd/internal/bitkey"
	"s3cbcd/internal/hilbert"
)

// File format (all integers little-endian):
//
//	magic   [4]byte "S3DB"
//	version uint32  (1, 2, 3 or 4)
//	dims    uint32
//	order   uint32
//	count   uint64
//	secBits uint32
//	flags   uint32                            (version 4 only)
//	table   (2^secBits + 1) × uint64   record start index per curve section
//	shards  uint32, (shards + 1) × uint64     (legacy: version 3; version 4 when flagged)
//	sketch  see sketch.go                     (version 4, flagShardSketch)
//	codec   see quant.go                      (version 4, flagCodec)
//	records count × (keyBytes + dims + 4 + 4 [+ 2 + 2])
//	lean    count × (keyBytes + 4 + 4 + 2 + 2)   (version 4, flagCodec)
//	codes   count × ceil(dims*qbits/8)           (version 4, flagCodec)
//
// Records are sorted by key; keyBytes = ceil(dims*order/8). Version 2
// appends the interest point position (x, y as uint16) to every record;
// version 1 files remain readable with zero positions. The section table
// is the paper's index table: it locates any curve section's record range
// without touching the record area, which is what lets the pseudo-disk
// strategy load one section at a time. Version 3 additionally stores a
// shard manifest — record start indices of a key-range partition. It is
// a legacy, read-only section: nothing consumes it and no writer emits
// it any more, but files carrying one still open, and because the
// sections behind it are located by its length it is validated like any
// other untrusted input before being skipped.
//
// Version 4 adds a flags word selecting optional sections: the legacy
// shard manifest (flagShards), a segment occupancy sketch consulted to skip
// the whole file or individual blocks at query time (flagSketch,
// sketch.go), and the cold codec (flagCodec, quant.go) — a quantizer
// table plus two parallel record areas sharing the exact area's order
// and the section table: "lean" rows (key + identity, no fingerprint)
// serving statistical refinement at ~60% of the exact row bytes, and
// packed per-component cell codes serving the quantized distance filter
// of geometric refinement. The exact record area is byte-compatible
// with version 2, so every v2 reader code path works unchanged on v4.

var fileMagic = [4]byte{'S', '3', 'D', 'B'}

const (
	fileVersionV1 = 1
	fileVersionV2 = 2
	fileVersionV3 = 3
	fileVersionV4 = 4
	fileVersion   = fileVersionV4 // newest version this package writes or opens
)

// Version-4 flags word bits.
const (
	fileFlagShards uint32 = 1 << 0 // legacy shard manifest present (read, never written)
	fileFlagSketch uint32 = 1 << 1 // occupancy sketch section present
	fileFlagCodec  uint32 = 1 << 2 // quantizer table + lean and code areas present
)

// recordSize returns the on-disk record size for a curve at the given
// format version.
func recordSize(c *hilbert.Curve, version int) int {
	base := keyBytes(c) + c.Dims() + 8
	if version >= 2 {
		base += 4
	}
	return base
}

func keyBytes(c *hilbert.Curve) int {
	return (c.IndexBits() + 7) / 8
}

// leanRecordSize is the on-disk size of one lean row: the full record
// minus the fingerprint. Statistical refinement never reads fingerprints
// (the region IS the answer), so the cold stat path reads these instead.
func leanRecordSize(c *hilbert.Curve) int {
	return keyBytes(c) + 12
}

// WriteOptions selects what a serialized database file carries beyond
// the header, section table and exact record area.
type WriteOptions struct {
	// SectionBits is the section-table granularity; must be in
	// [0, IndexBits]. 12 is a good default for the paper's configuration.
	SectionBits int
	// Sketch embeds an occupancy sketch section (format version 4): a
	// Bloom filter over the blocks of a 2^SketchBits curve partition plus
	// per-dimension component envelopes, letting readers skip the file —
	// or individual blocks — a query provably cannot intersect.
	Sketch bool
	// SketchBits is the sketch's block granularity; non-positive selects
	// an automatic one. The live index passes its partition depth p so
	// plan blocks map one-to-one onto filter probes.
	SketchBits int
	// Codec embeds the cold codec (format version 4): a per-segment
	// quantizer table plus lean and packed-code record areas, so cold
	// reads can serve statistical refinement without fingerprint bytes
	// and pre-filter geometric candidates without exact bytes.
	Codec bool
}

// WriteFile serializes the database with a 2^sectionBits-entry section
// table. sectionBits must be in [0, IndexBits]; 12 is a good default for
// the paper's configuration. The file is format version 2; use
// WriteFileOpts for the version-4 sections.
func (db *DB) WriteFile(path string, sectionBits int) error {
	return db.writeFile(OSFS, path, WriteOptions{SectionBits: sectionBits})
}

// WriteFileFS is WriteFile through an explicit filesystem seam.
func (db *DB) WriteFileFS(fsys FS, path string, sectionBits int) error {
	return db.writeFile(fsys, path, WriteOptions{SectionBits: sectionBits})
}

// WriteFileOpts serializes the database with the selected optional
// sections; requesting a sketch or the codec produces a version-4 file.
func (db *DB) WriteFileOpts(path string, opt WriteOptions) error {
	return db.writeFile(OSFS, path, opt)
}

// WriteFileOptsFS is WriteFileOpts through an explicit filesystem seam.
func (db *DB) WriteFileOptsFS(fsys FS, path string, opt WriteOptions) error {
	return db.writeFile(fsys, path, opt)
}

func (db *DB) writeFile(fsys FS, path string, opt WriteOptions) error {
	if opt.SectionBits < 0 || opt.SectionBits > db.curve.IndexBits() {
		return fmt.Errorf("store: sectionBits %d outside [0,%d]", opt.SectionBits, db.curve.IndexBits())
	}
	f, err := fsys.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := db.writeTo(w, opt); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	// Segment files may be referenced by a durable manifest the moment
	// they are committed (CommitManifest); their data must reach stable
	// storage first, or a power loss could leave a committed manifest
	// pointing at torn records.
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (db *DB) writeTo(w io.Writer, opt WriteOptions) error {
	version := fileVersionV2
	var flags uint32
	if opt.Sketch || opt.Codec {
		version = fileVersionV4
		if opt.Sketch {
			flags |= fileFlagSketch
		}
		if opt.Codec {
			flags |= fileFlagCodec
		}
	}
	var quant *Quantizer
	if opt.Codec {
		var err error
		if quant, err = buildQuantizer(db, DefaultCodecBits); err != nil {
			return err
		}
	}
	var hdr [28]byte
	copy(hdr[0:4], fileMagic[:])
	binary.LittleEndian.PutUint32(hdr[4:], uint32(version))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(db.Dims()))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(db.curve.Order()))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(db.Len()))
	binary.LittleEndian.PutUint32(hdr[24:], uint32(opt.SectionBits))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	var buf [8]byte
	if version >= fileVersionV4 {
		binary.LittleEndian.PutUint32(buf[:4], flags)
		if _, err := w.Write(buf[:4]); err != nil {
			return err
		}
	}
	starts := db.SectionStarts(opt.SectionBits)
	for _, s := range starts {
		binary.LittleEndian.PutUint64(buf[:], uint64(s))
		if _, err := w.Write(buf[:]); err != nil {
			return err
		}
	}
	if opt.Sketch {
		sk := db.BuildSketch(opt.SketchBits)
		if _, err := w.Write(sk.appendTo(nil)); err != nil {
			return err
		}
	}
	if quant != nil {
		if _, err := w.Write(quant.appendTo(nil)); err != nil {
			return err
		}
	}
	// The rows are the exact record area, byte for byte.
	if _, err := w.Write(db.buf); err != nil {
		return err
	}
	if quant != nil {
		// Lean rows: each row without its fingerprint, same order.
		lean := make([]byte, 0, leanRecordSize(db.curve))
		for i := 0; i < db.Len(); i++ {
			lean = append(append(lean[:0], db.row(i)[:db.kb]...), db.tail(i)...)
			if _, err := w.Write(lean); err != nil {
				return err
			}
		}
		// Packed cell codes, same order.
		code := make([]byte, quant.CodeBytes(db.Dims()))
		for i := 0; i < db.Len(); i++ {
			clear(code)
			quant.encode(db.FP(i), code)
			if _, err := w.Write(code); err != nil {
				return err
			}
		}
	}
	return nil
}

// File is an opened database file. Only the header and section table are
// resident; records are loaded on demand with LoadRecords. A File is safe
// for concurrent LoadRecords calls (the FS File contract requires a
// concurrency-safe ReadAt, as os.File's is).
type File struct {
	f           Handle
	curve       *hilbert.Curve
	count       int
	sectionBits int
	starts      []int64
	shardStarts []int // nil for versions without a manifest
	dataOff     int64
	recSize     int
	version     int

	// Version-4 optional sections; zero/nil when absent.
	flags    uint32
	sketch   *Sketch
	quant    *Quantizer
	leanOff  int64 // lean record area offset (0 when no codec)
	codeOff  int64 // packed code area offset (0 when no codec)
	leanSize int   // bytes per lean row
	codeSize int   // bytes per packed code row
}

// Open reads a file's header and section table.
func Open(path string) (*File, error) { return OpenFS(OSFS, path) }

// OpenFS is Open through an explicit filesystem seam. Every validation
// failure closes the file before returning: a failed open must never
// leak a descriptor.
func OpenFS(fsys FS, path string) (*File, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, err
	}
	var hdr [28]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: reading header of %s: %w", path, err)
	}
	if [4]byte(hdr[0:4]) != fileMagic {
		f.Close()
		return nil, fmt.Errorf("store: %s is not an S3DB file", path)
	}
	version := int(binary.LittleEndian.Uint32(hdr[4:]))
	if version < fileVersionV1 || version > fileVersion {
		f.Close()
		return nil, fmt.Errorf("store: %s has unsupported version %d", path, version)
	}
	dims := int(binary.LittleEndian.Uint32(hdr[8:]))
	order := int(binary.LittleEndian.Uint32(hdr[12:]))
	count64 := binary.LittleEndian.Uint64(hdr[16:])
	secBits := int(binary.LittleEndian.Uint32(hdr[24:]))
	curve, err := hilbert.New(dims, order)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: %s: %w", path, err)
	}
	// A corrupt count would otherwise drive LoadRecords/LoadAll to
	// allocate count*recSize bytes before any read could fail; bound it
	// here, and below verify the record area actually exists on disk.
	if count64 > maxFileRecords {
		f.Close()
		return nil, fmt.Errorf("store: %s claims %d records (limit %d)", path, count64, int64(maxFileRecords))
	}
	count := int(count64)
	if secBits < 0 || secBits > curve.IndexBits() {
		f.Close()
		return nil, fmt.Errorf("store: %s has invalid section bits %d", path, secBits)
	}
	// Cap the table size independently of the curve geometry: a curve can
	// legitimately carry 160 index bits, but a 2^p-entry table beyond
	// maxSectionBits (8 GiB+) is only ever a corrupt header, and the
	// allocation must be refused before it is attempted.
	if secBits > maxSectionBits {
		f.Close()
		return nil, fmt.Errorf("store: %s section table of 2^%d entries exceeds the 2^%d sanity bound",
			path, secBits, maxSectionBits)
	}
	off := int64(len(hdr))
	var flags uint32
	if version >= fileVersionV4 {
		var fbuf [4]byte
		if _, err := io.ReadFull(f, fbuf[:]); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: reading flags of %s: %w", path, err)
		}
		flags = binary.LittleEndian.Uint32(fbuf[:])
		if flags&^(fileFlagShards|fileFlagSketch|fileFlagCodec) != 0 {
			f.Close()
			return nil, fmt.Errorf("store: %s carries unknown flags %#x", path, flags)
		}
		off += 4
	} else if version >= fileVersionV3 {
		flags = fileFlagShards
	}
	n := (1 << uint(secBits)) + 1
	// Probe the table's last byte before allocating its buffer, so a
	// truncated file (or a header whose secBits outruns the actual size)
	// is rejected without an allocation sized by untrusted input.
	if err := probeOffset(f, off+int64(8*n)-1); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: %s section table extends past end of file: %w", path, err)
	}
	tbl := make([]byte, 8*n)
	if _, err := io.ReadFull(f, tbl); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: reading section table of %s: %w", path, err)
	}
	starts := make([]int64, n)
	for i := range starts {
		starts[i] = int64(binary.LittleEndian.Uint64(tbl[8*i:]))
		if starts[i] < 0 || starts[i] > int64(count) || (i > 0 && starts[i] < starts[i-1]) {
			f.Close()
			return nil, fmt.Errorf("store: %s has corrupt section table at %d", path, i)
		}
	}
	if starts[0] != 0 || starts[n-1] != int64(count) {
		f.Close()
		return nil, fmt.Errorf("store: %s section table does not span the record range", path)
	}
	off += int64(8 * n)
	var shardStarts []int
	if flags&fileFlagShards != 0 {
		var cntBuf [4]byte
		if _, err := io.ReadFull(f, cntBuf[:]); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: reading shard manifest of %s: %w", path, err)
		}
		nShards := int(binary.LittleEndian.Uint32(cntBuf[:]))
		if nShards < 1 || nShards > count+1 {
			f.Close()
			return nil, fmt.Errorf("store: %s has invalid shard count %d", path, nShards)
		}
		manifest := make([]byte, 8*(nShards+1))
		if _, err := io.ReadFull(f, manifest); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: reading shard manifest of %s: %w", path, err)
		}
		shardStarts = make([]int, nShards+1)
		for i := range shardStarts {
			shardStarts[i] = int(binary.LittleEndian.Uint64(manifest[8*i:]))
			if shardStarts[i] < 0 || shardStarts[i] > count || (i > 0 && shardStarts[i] < shardStarts[i-1]) {
				f.Close()
				return nil, fmt.Errorf("store: %s has corrupt shard manifest at %d", path, i)
			}
		}
		if shardStarts[0] != 0 || shardStarts[nShards] != count {
			f.Close()
			return nil, fmt.Errorf("store: %s shard manifest does not span the record range", path)
		}
		off += int64(4 + len(manifest))
	}
	var sketch *Sketch
	if flags&fileFlagSketch != 0 {
		// The fixed 16-byte sub-header bounds the section's variable tail;
		// probe before the tail read so a lying length fails cleanly (the
		// caps inside decodeSketch bound the allocation itself).
		var shdr [16]byte
		if _, err := io.ReadFull(f, shdr[:]); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: reading sketch header of %s: %w", path, err)
		}
		flen := int64(binary.LittleEndian.Uint32(shdr[12:]))
		if flen < 1 || flen > maxSketchFilterBytes {
			f.Close()
			return nil, fmt.Errorf("store: %s sketch filter of %d bytes outside [1, %d]", path, flen, maxSketchFilterBytes)
		}
		tail := int64(2*dims) + flen
		if err := probeOffset(f, off+16+tail-1); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: %s sketch section extends past end of file: %w", path, err)
		}
		sec := make([]byte, 16+tail)
		copy(sec, shdr[:])
		if _, err := io.ReadFull(f, sec[16:]); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: reading sketch section of %s: %w", path, err)
		}
		var used int
		if sketch, used, err = decodeSketch(sec, curve); err != nil || used != len(sec) {
			f.Close()
			if err == nil {
				err = fmt.Errorf("sketch section size mismatch")
			}
			return nil, fmt.Errorf("store: %s: %w", path, err)
		}
		off += int64(len(sec))
	}
	var quant *Quantizer
	if flags&fileFlagCodec != 0 {
		var qhdr [4]byte
		if _, err := io.ReadFull(f, qhdr[:]); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: reading codec header of %s: %w", path, err)
		}
		qbits := binary.LittleEndian.Uint32(qhdr[:])
		switch qbits {
		case 1, 2, 4, 8:
		default:
			f.Close()
			return nil, fmt.Errorf("store: %s codec bits %d not one of 1, 2, 4, 8", path, qbits)
		}
		tail := int64(2 * dims * ((1 << qbits) + 1))
		if err := probeOffset(f, off+4+tail-1); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: %s codec section extends past end of file: %w", path, err)
		}
		sec := make([]byte, 4+tail)
		copy(sec, qhdr[:])
		if _, err := io.ReadFull(f, sec[4:]); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: reading codec section of %s: %w", path, err)
		}
		var used int
		if quant, used, err = decodeQuantizer(sec, dims); err != nil || used != len(sec) {
			f.Close()
			if err == nil {
				err = fmt.Errorf("codec section size mismatch")
			}
			return nil, fmt.Errorf("store: %s: %w", path, err)
		}
		off += int64(len(sec))
	}
	dataOff := off
	// The header's record count is only trustworthy once the record area
	// it promises is actually on disk: probe the last record byte, so a
	// truncated file fails here instead of returning garbage (or a short
	// read) from a later LoadRecords. The codec's lean and code areas get
	// the same treatment — a file truncated inside them must fail at open,
	// not during a cold read.
	recSize := recordSize(curve, version)
	fl := &File{
		f:           f,
		curve:       curve,
		count:       count,
		sectionBits: secBits,
		starts:      starts,
		shardStarts: shardStarts,
		dataOff:     dataOff,
		recSize:     recSize,
		version:     version,
		flags:       flags,
		sketch:      sketch,
		quant:       quant,
	}
	end := dataOff + int64(count)*int64(recSize)
	if quant != nil {
		fl.leanSize = leanRecordSize(curve)
		fl.codeSize = quant.CodeBytes(dims)
		fl.leanOff = end
		end += int64(count) * int64(fl.leanSize)
		fl.codeOff = end
		end += int64(count) * int64(fl.codeSize)
	}
	if count > 0 {
		if err := probeOffset(f, end-1); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: %s record area truncated (want %d bytes): %w", path, end, err)
		}
	}
	return fl, nil
}

// maxFileRecords bounds the record count a header may claim (2^48
// records of the smallest record layout already exceed 8 PiB).
const maxFileRecords = 1 << 48

// maxSectionBits bounds the section-table granularity a header may
// claim. Writers validate sectionBits against the curve alone, but any
// value past this produces a multi-gigabyte table no real archive
// carries; reading one is always header corruption.
const maxSectionBits = 28

// probeOffset verifies the file has a byte at off (a cheap existence
// check against the actual file size, which the Handle interface does
// not expose directly).
func probeOffset(f Handle, off int64) error {
	var b [1]byte
	_, err := f.ReadAt(b[:], off)
	return err
}

// Version returns the file's format version (1 through 4).
func (fl *File) Version() int { return fl.version }

// Sketch returns the file's embedded occupancy sketch, or nil when the
// file carries none. The sketch is shared and read-only.
func (fl *File) Sketch() *Sketch { return fl.sketch }

// Quantizer returns the file's embedded cold codec table, or nil when
// the file carries none. The quantizer is shared and read-only.
func (fl *File) Quantizer() *Quantizer { return fl.quant }

// HasCodec reports whether the file carries the cold codec: a quantizer
// table plus lean and packed-code record areas.
func (fl *File) HasCodec() bool { return fl.quant != nil }

// SketchBytes returns the on-disk size of the sketch section (0 when
// absent).
func (fl *File) SketchBytes() int {
	if fl.sketch == nil {
		return 0
	}
	return fl.sketch.EncodedSize()
}

// ShardStarts returns the legacy shard manifest as the reader parsed it
// (record start index per shard plus a final entry equal to Count), or
// nil when the file carries none. Nothing in this module consumes it.
func (fl *File) ShardStarts() []int { return fl.shardStarts }

// Close releases the underlying file.
func (fl *File) Close() error { return fl.f.Close() }

// Curve returns the curve the file was built with.
func (fl *File) Curve() *hilbert.Curve { return fl.curve }

// Count returns the number of records in the file.
func (fl *File) Count() int { return fl.count }

// SectionBits returns the granularity exponent of the stored table.
func (fl *File) SectionBits() int { return fl.sectionBits }

// RecordBytes returns the on-disk size of the record area — the number
// operators size block-cache budgets against.
func (fl *File) RecordBytes() int64 { return int64(fl.count) * int64(fl.recSize) }

// RecordSize returns the on-disk size of one record.
func (fl *File) RecordSize() int { return fl.recSize }

// ChooseSectionBits returns the smallest r such that every curve section
// of a 2^r partition holds at most budget records, capped at the stored
// table granularity. If even the finest stored partition exceeds the
// budget, the finest partition is returned (best-effort, mirroring the
// paper where r <= p). This is the pseudo-disk block sizing rule of
// Section IV-B, shared by the batch experiment (core.DiskIndex) and the
// cold serving path (ColdFile).
func (fl *File) ChooseSectionBits(budget int) int {
	for bits := 0; bits <= fl.sectionBits; bits++ {
		per := 1 << uint(fl.sectionBits-bits)
		maxSec := int64(0)
		for s := 0; s < 1<<uint(bits); s++ {
			if n := fl.starts[(s+1)*per] - fl.starts[s*per]; n > maxSec {
				maxSec = n
			}
		}
		if maxSec <= int64(budget) {
			return bits
		}
	}
	return fl.sectionBits
}

// SectionRecordRange returns the record index range [lo, hi) of curve
// section idx in a partition into 2^bits sections. bits must not exceed
// SectionBits (coarser partitions aggregate stored sections).
func (fl *File) SectionRecordRange(bits, idx int) (lo, hi int) {
	if bits < 0 || bits > fl.sectionBits {
		panic(fmt.Sprintf("store: section bits %d outside [0,%d]", bits, fl.sectionBits))
	}
	per := 1 << uint(fl.sectionBits-bits)
	return int(fl.starts[idx*per]), int(fl.starts[(idx+1)*per])
}

// A file holds up to three parallel record areas sharing one order;
// area names the one a block is read from (and namespaces the block
// cache).
type area uint8

const (
	areaExact area = iota // key, fingerprint, id, tc [, x, y]
	areaLean              // key, id, tc, x, y (codec files)
	areaCodes             // packed quantizer codes (codec files)
)

// load reads rows [lo, hi) of one area with a single ReadAt into a
// buffer of its own, and returns them as they are stored: nothing is
// decoded until an accessor asks.
func (fl *File) load(a area, lo, hi int) (*Chunk, error) { return fl.read(a, lo, hi, false) }

// read is load, drawing the chunk from the recycling pool when pooled
// (drawChunk) — in which case a failed read hands it straight back, so
// the caller owns a chunk only on success.
func (fl *File) read(a area, lo, hi int, pooled bool) (*Chunk, error) {
	l := Chunk{base: lo, kb: keyBytes(fl.curve), xy: true}
	off, what := fl.dataOff, "records"
	switch a {
	case areaExact:
		l.stride, l.dims, l.xy = fl.recSize, fl.curve.Dims(), fl.version >= fileVersionV2
	case areaLean:
		off, what, l.stride = fl.leanOff, "lean records", fl.leanSize
	case areaCodes:
		off, what, l.stride, l.kb = fl.codeOff, "codes", fl.codeSize, 0
	}
	if a != areaExact && fl.quant == nil {
		return nil, fmt.Errorf("store: file carries no %s area", what)
	}
	if lo < 0 || hi < lo || hi > fl.count {
		return nil, fmt.Errorf("store: record range [%d,%d) outside [0,%d)", lo, hi, fl.count)
	}
	n := (hi - lo) * l.stride
	var ch *Chunk
	if pooled {
		ch = drawChunk(n)
	} else {
		ch = &Chunk{buf: make([]byte, n)}
	}
	l.buf = ch.buf
	*ch = l
	if hi > lo {
		if _, err := fl.f.ReadAt(ch.buf, off+int64(lo)*int64(ch.stride)); err != nil {
			if pooled {
				recycleChunk(ch)
			}
			return nil, fmt.Errorf("store: reading %s [%d,%d): %w", what, lo, hi, err)
		}
	}
	return ch, nil
}

// LoadRecords reads records [lo, hi) into a Chunk.
func (fl *File) LoadRecords(lo, hi int) (*Chunk, error) { return fl.load(areaExact, lo, hi) }

// LoadLean reads lean rows [lo, hi) into a Chunk whose fingerprints are
// absent (FP returns nil). Only files carrying the cold codec have a lean
// area; statistical refinement reads these at leanSize/recSize of the
// exact bytes.
func (fl *File) LoadLean(lo, hi int) (*Chunk, error) { return fl.load(areaLean, lo, hi) }

// LoadAll reads the whole file into an in-memory DB. The exact record
// area is the DB's row image, so that is one read; a version-1 file,
// whose rows carry no position, is widened once with zero x and y.
func (fl *File) LoadAll() (*DB, error) {
	ch, err := fl.load(areaExact, 0, fl.count)
	if err != nil {
		return nil, err
	}
	if ch.xy {
		return &DB{Chunk: *ch, curve: fl.curve}, nil
	}
	db := newDB(fl.curve, make([]byte, fl.count*recordSize(fl.curve, fileVersionV2)))
	for i := 0; i < fl.count; i++ {
		copy(db.row(i), ch.row(i))
	}
	return db, nil
}

// ReadFile opens path and loads the complete database.
func ReadFile(path string) (*DB, error) { return ReadFileFS(OSFS, path) }

// ReadFileFS is ReadFile through an explicit filesystem seam.
func ReadFileFS(fsys FS, path string) (*DB, error) {
	fl, err := OpenFS(fsys, path)
	if err != nil {
		return nil, err
	}
	defer fl.Close()
	return fl.LoadAll()
}

// Chunk is a contiguous run of rows of one record area, held as the
// bytes one read returned: a view, not a decoded copy. Record i of the
// chunk is record Base()+i of the database; accessors decode that one
// record on demand, and run searches compare the stored keys in
// place. Keys are stored big-endian, so byte order is key order. Every
// offset is a multiple of the stride plus a field offset the layout
// fixes, bounded by the buffer length. A resident DB is a Chunk over its
// whole exact record area.
type Chunk struct {
	base   int    // index of record 0 in the database; 0 for a DB
	buf    []byte // Len() rows of stride bytes
	stride int
	kb     int  // key bytes, the row prefix (0 in a code chunk)
	dims   int  // fingerprint bytes after the key (0 outside the exact area)
	xy     bool // rows end in x, y (every layout but format version 1)
}

// Base returns the database index of the chunk's record 0.
func (c *Chunk) Base() int { return c.base }

// Len returns the number of records in the chunk.
func (c *Chunk) Len() int { return len(c.buf) / c.stride }

// row returns the stored bytes of chunk-local record i.
func (c *Chunk) row(i int) []byte { return c.buf[i*c.stride : (i+1)*c.stride] }

// tail returns what follows the key and fingerprint of record i: id, tc
// and, when stored, x and y.
func (c *Chunk) tail(i int) []byte { return c.row(i)[c.kb+c.dims:] }

// Key returns the Hilbert key of chunk-local record i.
func (c *Chunk) Key(i int) bitkey.Key { return bitkey.FromBytes(c.row(i), c.kb) }

// FP returns the fingerprint of chunk-local record i, aliasing the
// chunk's buffer; nil in a lean chunk.
func (c *Chunk) FP(i int) []byte {
	if c.dims == 0 {
		return nil
	}
	return c.row(i)[c.kb : c.kb+c.dims : c.kb+c.dims]
}

// ID returns the identifier of chunk-local record i.
func (c *Chunk) ID(i int) uint32 { return binary.LittleEndian.Uint32(c.tail(i)) }

// TC returns the time code of chunk-local record i.
func (c *Chunk) TC(i int) uint32 { return binary.LittleEndian.Uint32(c.tail(i)[4:]) }

// X returns the interest point x position of chunk-local record i.
func (c *Chunk) X(i int) uint16 {
	if !c.xy {
		return 0
	}
	return binary.LittleEndian.Uint16(c.tail(i)[8:])
}

// Y returns the interest point y position of chunk-local record i.
func (c *Chunk) Y(i int) uint16 {
	if !c.xy {
		return 0
	}
	return binary.LittleEndian.Uint16(c.tail(i)[10:])
}
