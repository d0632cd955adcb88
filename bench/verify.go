package main

// Answer checking. A wrong answer fails the run: served answers are
// compared with an in-process resident oracle over the same records
// (digest of canonically sorted matches), range answers additionally
// with a brute-force distance scan written here, and the paper's
// statistical contract is checked as a retrieval rate.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
)

// match is one answer row as the harness compares it.
type match struct {
	ID, TC uint32
	X, Y   uint16
}

func sortMatches(ms []match) {
	sort.Slice(ms, func(a, b int) bool {
		x, y := ms[a], ms[b]
		if x.ID != y.ID {
			return x.ID < y.ID
		}
		if x.TC != y.TC {
			return x.TC < y.TC
		}
		if x.X != y.X {
			return x.X < y.X
		}
		return x.Y < y.Y
	})
}

type matchJSON struct {
	ID uint32 `json:"id"`
	TC uint32 `json:"tc"`
	X  uint16 `json:"x"`
	Y  uint16 `json:"y"`
}

func fromJSON(ms []matchJSON) []match {
	out := make([]match, len(ms))
	for i, m := range ms {
		out[i] = match(m)
	}
	return out
}

// decodeAnswer parses a search response into one match list per
// fingerprint of the request.
func decodeAnswer(r *request, body []byte) ([][]match, error) {
	if r.Kind == kindStatBatch {
		var resp struct {
			Results [][]matchJSON `json:"results"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return nil, err
		}
		if len(resp.Results) != len(r.Queries) {
			return nil, fmt.Errorf("batch of %d answered with %d results", len(r.Queries), len(resp.Results))
		}
		out := make([][]match, len(resp.Results))
		for i, ms := range resp.Results {
			out[i] = fromJSON(ms)
		}
		return out, nil
	}
	var resp struct {
		Matches []matchJSON `json:"matches"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, err
	}
	return [][]match{fromJSON(resp.Matches)}, nil
}

// digester hashes answers in request order, each canonically sorted.
type digester struct {
	h   [sha256.Size]byte
	buf []byte
}

func (d *digester) add(ms []match) {
	sortMatches(ms)
	d.buf = binary.LittleEndian.AppendUint32(d.buf, uint32(len(ms)))
	for _, m := range ms {
		d.buf = binary.LittleEndian.AppendUint32(d.buf, m.ID)
		d.buf = binary.LittleEndian.AppendUint32(d.buf, m.TC)
		d.buf = binary.LittleEndian.AppendUint16(d.buf, m.X)
		d.buf = binary.LittleEndian.AppendUint16(d.buf, m.Y)
	}
}

func (d *digester) sum() string {
	d.h = sha256.Sum256(d.buf)
	return hex.EncodeToString(d.h[:8])
}

// answerer answers one search request: over HTTP, or straight from the
// oracle.
type answerer func(r *request) ([][]match, error)

func httpAnswerer(c *client) answerer {
	return func(r *request) ([][]match, error) {
		ok, body, _, err := c.do(r, true)
		if !ok {
			return nil, err
		}
		return decodeAnswer(r, body)
	}
}

func directAnswerer(t *topology) answerer {
	return func(r *request) ([][]match, error) {
		_, res, err := t.SearchDirect(r)
		return res, err
	}
}

// found reports whether the query's source record is among ms.
func found(q query, ms []match) bool {
	for _, m := range ms {
		if m.ID == q.SrcID && m.TC == q.SrcTC {
			return true
		}
	}
	return false
}

// bruteRange is the reference ε-range answer: every record within
// rangeEps of q, by a plain distance scan.
func bruteRange(recs []record, q query) []match {
	eps2 := rangeEps * rangeEps
	var out []match
	for _, rec := range recs {
		var d2 float64
		for j, v := range rec.FP {
			d := float64(int(v) - int(q.FP[j]))
			d2 += d * d
		}
		if d2 <= eps2 {
			out = append(out, match{ID: rec.ID, TC: rec.TC})
		}
	}
	return out
}

func sameMatches(a, b []match) bool {
	if len(a) != len(b) {
		return false
	}
	sortMatches(a)
	sortMatches(b)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// probeResult is the outcome of sending the probe set.
type probeResult struct {
	Digest string
	// Hits / Asked count distorted queries whose source record came back.
	Hits, Asked int
}

// runProbe sends every request of the set through ans and digests the
// answers. The first rangeChecks range answers are also compared with
// the brute-force scan over recs (nil skips that check).
func runProbe(ans answerer, set []request, recs []record, rangeChecks int) (probeResult, error) {
	var (
		d   digester
		res probeResult
	)
	for i := range set {
		r := &set[i]
		got, err := ans(r)
		if err != nil {
			return res, fmt.Errorf("probe %d (%v): %w", i, r.Kind, err)
		}
		for k, ms := range got {
			d.add(ms)
			res.Asked++
			if found(r.Queries[k], ms) {
				res.Hits++
			}
		}
		if r.Kind == kindRange && recs != nil && rangeChecks > 0 {
			rangeChecks--
			if want := bruteRange(recs, r.Queries[0]); !sameMatches(got[0], want) {
				return res, fmt.Errorf("probe %d: range answer has %d matches, brute-force scan %d (or different ones)",
					i, len(got[0]), len(want))
			}
		}
	}
	res.Digest = d.sum()
	return res, nil
}
