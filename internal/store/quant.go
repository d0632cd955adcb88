package store

// Quantized record codec for cold segments: every fingerprint component
// is reduced to a few bits (4 by default) indexing equi-populated cells
// of the segment's own per-dimension value distribution — the VA-file
// approximation of Weber & Blott (internal/vafile) embedded into the
// segment format. The cold read path scans the compact codes, rejects
// candidates whose conservative quantized distance bound already exceeds
// the query radius without ever touching the exact record bytes, and
// verifies survivors with exact fallback reads; see ColdFile. This is
// the compression-for-similarity-queries trade (Ingber, Courtade &
// Weissman): CPU per candidate for bytes per candidate, bought exactly
// where PR 6 made bytes the measured cost.

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
)

// DefaultCodecBits is the per-component code width every writer uses
// (readers accept 1, 2, 4 or 8): 8→4-bit components halve the
// fingerprint bytes while keeping the lower bound tight enough to
// reject most candidates.
const DefaultCodecBits = 4

// Quantizer is a per-segment scalar quantizer: for each dimension,
// 2^bits+1 non-decreasing cell boundaries over the byte value range,
// equi-populated against the segment's own records. Code c of dimension
// j certifies the exact component lies in [bounds[j][c], bounds[j][c+1]].
type Quantizer struct {
	bits   int
	cells  int
	bounds [][]uint16 // dims × (cells+1); bounds[j][cells] == 256 as written
	// lbs recycles lower bounders (see recycle), so a warm filtered visit
	// allocates none.
	lbs sync.Pool
}

// buildQuantizer fits equi-populated boundaries to the database, the
// standard VA-file choice for skewed data (mirrors vafile.Build with
// integer boundaries — codes certify closed cells, so ties need no
// epsilon nudging).
func buildQuantizer(db *DB, bits int) (*Quantizer, error) {
	switch bits {
	case 1, 2, 4, 8:
	default:
		return nil, fmt.Errorf("store: codec bits = %d must be 1, 2, 4 or 8", bits)
	}
	dims := db.Dims()
	cells := 1 << uint(bits)
	qz := &Quantizer{bits: bits, cells: cells, bounds: make([][]uint16, dims)}
	n := db.Len()
	for j := 0; j < dims; j++ {
		var histo [256]int
		for i := 0; i < n; i++ {
			histo[db.FP(i)[j]]++
		}
		b := make([]uint16, cells+1)
		cum, v := 0, 0
		for c := 1; c < cells; c++ {
			target := n * c / cells
			for v < 255 && cum+histo[v] <= target {
				cum += histo[v]
				v++
			}
			b[c] = uint16(v)
			if b[c] < b[c-1] {
				b[c] = b[c-1]
			}
		}
		b[cells] = 256
		qz.bounds[j] = b
	}
	return qz, nil
}

// Dims returns the number of dimensions the quantizer covers.
func (qz *Quantizer) Dims() int { return len(qz.bounds) }

// Bits returns the per-component code width.
func (qz *Quantizer) Bits() int { return qz.bits }

// CodeBytes returns the packed code size of one record.
func (qz *Quantizer) CodeBytes(dims int) int { return (dims*qz.bits + 7) / 8 }

// EncodedSize returns the codec section's on-disk size in bytes.
func (qz *Quantizer) EncodedSize() int {
	return 4 + 2*len(qz.bounds)*(qz.cells+1)
}

// cellOf returns the cell certifying value v in dimension j: the largest
// c with bounds[c] <= v, so v ∈ [bounds[c], bounds[c+1]].
func (qz *Quantizer) cellOf(j int, v byte) int {
	b := qz.bounds[j]
	c := sort.Search(len(b), func(i int) bool { return b[i] > uint16(v) }) - 1
	if c < 0 {
		c = 0
	}
	if c >= qz.cells {
		c = qz.cells - 1
	}
	return c
}

// encode packs the fingerprint's cell codes into dst (len CodeBytes,
// zeroed by the caller).
func (qz *Quantizer) encode(fp []byte, dst []byte) {
	perByte := 8 / qz.bits
	for j, v := range fp {
		c := qz.cellOf(j, v)
		dst[j/perByte] |= byte(c) << uint((j%perByte)*qz.bits)
	}
}

// LowerBounder is a per-query distance filter over packed codes: a
// precomputed per-dimension, per-cell table of squared lower-bound
// contributions (the vafile lbTable), evaluated with early exit.
type LowerBounder struct {
	table   []float64 // dims × cells, flattened
	dims    int
	cells   int
	bits    int
	perByte int
	mask    byte
	// survivors is scratch of the visit filtering with lb: the records of
	// its current block the bound could not reject.
	survivors []int
}

// NewLowerBounder precomputes the filter for one query point. For a code
// certifying v ∈ [lo, hi], the per-dimension contribution is
// max(lo−q, q−hi, 0)², so the summed bound never exceeds the true
// squared distance.
func (qz *Quantizer) NewLowerBounder(qf []float64) *LowerBounder {
	dims := len(qz.bounds)
	lb, _ := qz.lbs.Get().(*LowerBounder)
	if lb == nil {
		lb = &LowerBounder{
			table:   make([]float64, dims*qz.cells),
			dims:    dims,
			cells:   qz.cells,
			bits:    qz.bits,
			perByte: 8 / qz.bits,
			mask:    byte(1<<uint(qz.bits)) - 1,
		}
	} else {
		clear(lb.table) // dimensions qf lacks contribute nothing
	}
	for j := 0; j < dims && j < len(qf); j++ {
		b := qz.bounds[j]
		for c := 0; c < qz.cells; c++ {
			var d float64
			if qf[j] < float64(b[c]) {
				d = float64(b[c]) - qf[j]
			} else if qf[j] > float64(b[c+1]) {
				d = qf[j] - float64(b[c+1])
			}
			lb.table[j*qz.cells+c] = d * d
		}
	}
	return lb
}

// recycle hands lb back for a later query's NewLowerBounder; the caller
// must not use it afterwards.
func (qz *Quantizer) recycle(lb *LowerBounder) {
	lb.survivors = lb.survivors[:0]
	qz.lbs.Put(lb)
}

// Exceeds reports whether the quantized lower bound of one packed code
// row already exceeds boundSq — a proof the exact record cannot lie
// within the radius, so its bytes never need reading.
func (lb *LowerBounder) Exceeds(code []byte, boundSq float64) bool {
	s := 0.0
	for j := 0; j < lb.dims; j++ {
		c := int(code[j/lb.perByte]>>uint((j%lb.perByte)*lb.bits)) & int(lb.mask)
		s += lb.table[j*lb.cells+c]
		if s > boundSq {
			return true
		}
	}
	return false
}

// appendTo serializes the codec section:
//
//	qbits  uint32
//	bounds dims × (2^qbits + 1) × uint16
func (qz *Quantizer) appendTo(buf []byte) []byte {
	var w [4]byte
	binary.LittleEndian.PutUint32(w[:], uint32(qz.bits))
	buf = append(buf, w[:4]...)
	var b2 [2]byte
	for _, b := range qz.bounds {
		for _, v := range b {
			binary.LittleEndian.PutUint16(b2[:], v)
			buf = append(buf, b2[:]...)
		}
	}
	return buf
}

// decodeQuantizer parses a codec section, validating widths and boundary
// monotonicity before trusting them. Returns the quantizer and the
// number of bytes consumed.
func decodeQuantizer(data []byte, dims int) (*Quantizer, int, error) {
	if len(data) < 4 {
		return nil, 0, fmt.Errorf("codec section truncated (%d of 4 header bytes)", len(data))
	}
	bits := int(binary.LittleEndian.Uint32(data[0:]))
	switch bits {
	case 1, 2, 4, 8:
	default:
		return nil, 0, fmt.Errorf("codec bits %d not one of 1, 2, 4, 8", bits)
	}
	cells := 1 << uint(bits)
	size := 4 + 2*dims*(cells+1)
	if len(data) < size {
		return nil, 0, fmt.Errorf("codec section truncated (%d of %d bytes)", len(data), size)
	}
	qz := &Quantizer{bits: bits, cells: cells, bounds: make([][]uint16, dims)}
	off := 4
	for j := 0; j < dims; j++ {
		b := make([]uint16, cells+1)
		for c := range b {
			b[c] = binary.LittleEndian.Uint16(data[off:])
			off += 2
			if b[c] > 256 {
				return nil, 0, fmt.Errorf("codec boundary %d of dimension %d exceeds 256", b[c], j)
			}
			if c > 0 && b[c] < b[c-1] {
				return nil, 0, fmt.Errorf("codec boundaries of dimension %d not non-decreasing", j)
			}
		}
		qz.bounds[j] = b
	}
	return qz, size, nil
}
