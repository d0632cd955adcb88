package router

// The router never decodes a match. A backend body is checked once with
// json.Valid — a torn or non-JSON body stays a retryable failure — and
// then only located: a small scanner finds the top-level members as
// slices of the body, and the merge copies each group's match array
// into one output buffer in group order. Stat, range and batch merging
// is pure concatenation because the groups' answers are disjoint runs of
// the store's canonical order; k-NN keeps every element as raw bytes and
// parses only its "dist". The merged body equals, byte for byte, what
// decoding every reply and re-encoding the merge produced, because
// s3serve writes each match in the one canonical form that decode path
// re-encoded it in (internal/httpapi/wire.go).

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"sync/atomic"

	"s3cbcd/internal/httpapi"
)

// ws returns the index of the first non-whitespace byte at or after i.
func ws(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// stringEnd returns the index just past the string opening at b[i].
func stringEnd(b []byte, i int) int {
	for i++; i < len(b); i++ {
		switch b[i] {
		case '\\':
			i++
		case '"':
			return i + 1
		}
	}
	return len(b)
}

// structural marks the bytes that open or close a nested value or a
// string; valueEnd skips every other byte in one tight loop.
var structural = [256]bool{'"': true, '{': true, '}': true, '[': true, ']': true}

// valueEnd returns the index just past the JSON value starting at b[i].
// The scanner assumes valid JSON (json.Valid ran first); on anything
// else it stops early, never reading out of bounds.
func valueEnd(b []byte, i int) int {
	if i >= len(b) {
		return i
	}
	switch b[i] {
	case '"':
		return stringEnd(b, i)
	case '{', '[':
		depth := 0
		for i < len(b) {
			switch b[i] {
			case '"':
				i = stringEnd(b, i)
				continue
			case '{', '[':
				depth++
			case '}', ']':
				if depth--; depth == 0 {
					return i + 1
				}
			}
			for i++; i < len(b) && !structural[b[i]]; i++ {
			}
		}
		return i
	}
	for i < len(b) && b[i] != ',' && b[i] != '}' && b[i] != ']' && ws(b, i) == i {
		i++
	}
	return i
}

// iter walks the members of one JSON object or the elements of one
// array, handing out raw slices of the input.
type iter struct {
	b   []byte
	i   int
	obj bool
}

// open starts walking v, which must hold an object (kind '{') or an
// array (kind '[').
func open(v []byte, kind byte) (iter, bool) {
	i := ws(v, 0)
	if i >= len(v) || v[i] != kind {
		return iter{}, false
	}
	return iter{b: v, i: i + 1, obj: kind == '{'}, true
}

// next returns the next member — key without its quotes (nil for an
// array element) and raw value — or ok false at the end.
func (it *iter) next() (key, val []byte, ok bool) {
	i := ws(it.b, it.i)
	if i < len(it.b) && it.b[i] == ',' {
		i = ws(it.b, i+1)
	}
	if it.obj {
		if i >= len(it.b) || it.b[i] != '"' {
			return nil, nil, false
		}
		e := stringEnd(it.b, i)
		if e-1 <= i {
			return nil, nil, false
		}
		key = it.b[i+1 : e-1]
		if i = ws(it.b, e); i >= len(it.b) || it.b[i] != ':' {
			return nil, nil, false
		}
		i = ws(it.b, i+1)
	}
	if i >= len(it.b) || it.b[i] == '}' || it.b[i] == ']' {
		return nil, nil, false
	}
	e := valueEnd(it.b, i)
	if e == i {
		return nil, nil, false
	}
	it.i = e
	return key, it.b[i:e], true
}

// isNull reports whether a raw value is the JSON null literal.
func isNull(v []byte) bool { return string(v) == "null" }

// elements returns what a raw array value holds between its brackets,
// whitespace trimmed (nothing for [] and for null); ok is false when v
// is neither an array nor null.
func elements(v []byte) ([]byte, bool) {
	if isNull(v) {
		return nil, true
	}
	if len(v) < 2 || v[0] != '[' || v[len(v)-1] != ']' {
		return nil, false
	}
	i, e := ws(v, 1), len(v)-1
	for e > i && ws(v, e-1) == e {
		e--
	}
	return v[i:e], true
}

// errTorn marks a backend body that is valid JSON but not a reply of
// the route's shape; like a body that is not JSON at all, it is a
// retryable failure.
var errTorn = errors.New("reply members have the wrong shape")

// reply is one backend's answer located in its body. locate fills the
// top-level members as slices of the body, nil when absent; the route's
// parse checks them and derives what its merge reads.
type reply struct {
	// body length: this group's share of the merged body is at most this
	size int

	matches, results, plan, blocks, exact, scanned, trace []byte

	batch    [][]byte  // batch: each per-query array's elements
	elems    [][]byte  // k-NN: each match element,
	dists    []float64 // its distance,
	nscanned int       // and the records scanned
}

// route is one search endpoint's wire shape. parse checks a located
// backend reply; merge appends the merged body's members after its
// opening brace in sorted-key order, missingShards included (search
// appends a trace and closes the object). k is what a k-NN request asks
// for; the other routes never read the request.
type route struct {
	path  string
	k     func(req []byte) int
	parse func(rp *reply) error
	merge func(b []byte, outs []*reply, missing []int, k int) []byte
}

var (
	statRoute  = route{path: "/search/statistical", parse: parseMatches, merge: mergeStat}
	batchRoute = route{path: "/search/statistical/batch", parse: parseBatch, merge: mergeBatch}
	rangeRoute = route{path: "/search/range", parse: parseMatches, merge: mergeRange}
	knnRoute   = route{path: "/search/knn", k: knnK, parse: parseKNN, merge: mergeKNN}
)

// locate finds the top-level members every route reads; a repeated key
// keeps its last value, as decoding did.
func locate(body []byte) (*reply, error) {
	it, ok := open(body, '{')
	if !ok {
		return nil, errTorn
	}
	rp := &reply{size: len(body)}
	for key, val, ok := it.next(); ok; key, val, ok = it.next() {
		switch string(key) {
		case "matches":
			rp.matches = val
		case "results":
			rp.results = val
		case "plan":
			rp.plan = val
		case "blocks":
			rp.blocks = val
		case "exact":
			rp.exact = val
		case "scanned":
			rp.scanned = val
		case "trace":
			rp.trace = val
		}
	}
	return rp, nil
}

// parser returns the parse for one request's replies: locate, the
// route's parse, and one check across groups — every reply must hold
// as many batch results as the first located one (zero on the
// single-query routes). Healthy backends decode the same request alike,
// so a reply that disagrees is torn and its attempt moves to a sibling;
// the router never reads the request to learn the count.
func (rt *route) parser() func([]byte) (*reply, error) {
	first := new(atomic.Int64)
	first.Store(-1)
	return func(body []byte) (*reply, error) {
		rp, err := locate(body)
		if err == nil {
			err = rt.parse(rp)
		}
		if err != nil {
			return nil, err
		}
		if n := int64(len(rp.batch)); !first.CompareAndSwap(-1, n) && first.Load() != n {
			return nil, fmt.Errorf("%w: %d batch results where an earlier reply held %d", errTorn, n, first.Load())
		}
		return rp, nil
	}
}

// parseMatches checks a stat or range reply, narrowing matches to the
// array's elements: matches must be an array.
func parseMatches(rp *reply) error {
	el, ok := elements(rp.matches)
	if !ok && rp.matches != nil {
		return errTorn
	}
	rp.matches = el
	return nil
}

// parseBatch splits results into each per-query array's elements.
func parseBatch(rp *reply) error {
	if rp.results == nil || isNull(rp.results) {
		return nil
	}
	it, ok := open(rp.results, '[')
	if !ok {
		return errTorn
	}
	for _, v, ok := it.next(); ok; _, v, ok = it.next() {
		el, ok := elements(v)
		if !ok {
			return errTorn
		}
		rp.batch = append(rp.batch, el)
	}
	return nil
}

// parseKNN keeps each match element raw and parses only its distance,
// plus the scanned count the merge sums; exact must be a boolean.
func parseKNN(rp *reply) error {
	switch string(rp.exact) {
	case "", "true", "false", "null":
	default:
		return errTorn
	}
	var err error
	if rp.scanned != nil && !isNull(rp.scanned) {
		if rp.nscanned, err = strconv.Atoi(string(rp.scanned)); err != nil {
			return errTorn
		}
	}
	if rp.matches == nil || isNull(rp.matches) {
		return nil
	}
	it, ok := open(rp.matches, '[')
	if !ok {
		return errTorn
	}
	for _, el, ok := it.next(); ok; _, el, ok = it.next() {
		fields, ok := open(el, '{')
		if !ok {
			return errTorn
		}
		dist := 0.0
		for key, v, ok := fields.next(); ok; key, v, ok = fields.next() {
			if string(key) == "dist" && !isNull(v) {
				if dist, err = strconv.ParseFloat(string(v), 64); err != nil {
					return errTorn
				}
			}
		}
		rp.elems = append(rp.elems, el)
		rp.dists = append(rp.dists, dist)
	}
	return nil
}

// knnK is the k a k-NN request asks for (0 when absent or invalid).
func knnK(req []byte) int {
	var r struct{ K int }
	if json.Unmarshal(req, &r) != nil {
		return 0
	}
	return r.K
}

// key appends a member name, after a comma unless it opens the object.
func key(b []byte, k string) []byte {
	if len(b) > 0 && b[len(b)-1] != '{' {
		b = append(b, ',')
	}
	return append(append(append(b, '"'), k...), `":`...)
}

// splice appends one JSON array holding every present group's elements
// in group order.
func splice(b []byte, outs []*reply, elems func(*reply) []byte) []byte {
	b = append(b, '[')
	start := len(b)
	for _, rp := range outs {
		if rp == nil {
			continue
		}
		if el := elems(rp); len(el) > 0 {
			if len(b) > start {
				b = append(b, ',')
			}
			b = append(b, el...)
		}
	}
	return append(b, ']')
}

func matchesOf(rp *reply) []byte { return rp.matches }

// first returns the first present group's member, null when none has
// it: plan and blocks depend only on the query and the fleet's shared
// depth, so any group's bytes are every group's.
func first(outs []*reply, member func(*reply) []byte) []byte {
	for _, rp := range outs {
		if rp != nil && member(rp) != nil {
			return member(rp)
		}
	}
	return []byte("null")
}

// appendMissing writes a degraded reply's missingShards member.
func appendMissing(b []byte, missing []int) []byte {
	if len(missing) == 0 {
		return b
	}
	b = append(key(b, "missingShards"), '[')
	for i, g := range missing {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(g), 10)
	}
	return append(b, ']')
}

func mergeStat(b []byte, outs []*reply, missing []int, _ int) []byte {
	b = splice(key(b, "matches"), outs, matchesOf)
	b = appendMissing(b, missing)
	return append(key(b, "plan"), first(outs, func(rp *reply) []byte { return rp.plan })...)
}

func mergeRange(b []byte, outs []*reply, missing []int, _ int) []byte {
	b = append(key(b, "blocks"), first(outs, func(rp *reply) []byte { return rp.blocks })...)
	b = splice(key(b, "matches"), outs, matchesOf)
	return appendMissing(b, missing)
}

// mergeBatch splices per query; parser made every present reply hold
// the same number of results.
func mergeBatch(b []byte, outs []*reply, missing []int, _ int) []byte {
	n := 0
	for _, rp := range outs {
		if rp != nil {
			n = len(rp.batch)
			break
		}
	}
	b = append(key(appendMissing(b, missing), "results"), '[')
	for q := 0; q < n; q++ {
		if q > 0 {
			b = append(b, ',')
		}
		b = splice(b, outs, func(rp *reply) []byte { return rp.batch[q] })
	}
	return append(b, ']')
}

// mergeKNN is a k-way merge by ascending distance; the strict < keeps
// equal distances in group order. k <= 0 keeps every match.
func mergeKNN(b []byte, outs []*reply, missing []int, k int) []byte {
	exact := len(missing) == 0
	scanned, total := 0, 0
	for _, rp := range outs {
		if rp != nil {
			exact = exact && string(rp.exact) == "true"
			scanned += rp.nscanned
			total += len(rp.elems)
		}
	}
	if k <= 0 || k > total {
		k = total
	}
	b = strconv.AppendBool(key(b, "exact"), exact)
	b = append(key(b, "matches"), '[')
	idx := make([]int, len(outs))
	for n := 0; n < k; n++ {
		best := -1
		for g, rp := range outs {
			if rp == nil || idx[g] >= len(rp.elems) {
				continue
			}
			if best == -1 || rp.dists[idx[g]] < outs[best].dists[idx[best]] {
				best = g
			}
		}
		if n > 0 {
			b = append(b, ',')
		}
		b = append(b, outs[best].elems[idx[best]]...)
		idx[best]++
	}
	b = appendMissing(append(b, ']'), missing)
	return strconv.AppendInt(key(b, "scanned"), int64(scanned), 10)
}

// newMerged opens a response body sized for the merge of outs: the
// merged body holds at most every group's body plus the fixed members.
func newMerged(outs []*reply, missing []int) *httpapi.Body {
	size := 64 + 8*len(missing)
	for _, rp := range outs {
		if rp != nil {
			size += rp.size
		}
	}
	return httpapi.NewBody(size)
}
