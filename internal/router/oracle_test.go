package router

// The decode → merge → encode path the router ran before it learned to
// splice, kept verbatim as the oracle FuzzBackendReply holds the splice
// to: every backend body unmarshalled into typed replies, merged as Go
// values, and re-encoded through a map with sorted keys.

import (
	"bytes"
	"encoding/json"
)

type matchJSON struct {
	ID   uint32  `json:"id"`
	TC   uint32  `json:"tc"`
	X    uint16  `json:"x"`
	Y    uint16  `json:"y"`
	Dist float64 `json:"dist,omitempty"`
}

type statReply struct {
	Matches []matchJSON     `json:"matches"`
	Plan    json.RawMessage `json:"plan"`
	Trace   json.RawMessage `json:"trace,omitempty"`
}

type batchReply struct {
	Results [][]matchJSON   `json:"results"`
	Trace   json.RawMessage `json:"trace,omitempty"`
}

type rangeReply struct {
	Matches []matchJSON     `json:"matches"`
	Blocks  json.RawMessage `json:"blocks"`
	Trace   json.RawMessage `json:"trace,omitempty"`
}

type knnReply struct {
	Matches []matchJSON     `json:"matches"`
	Exact   bool            `json:"exact"`
	Scanned int             `json:"scanned"`
	Trace   json.RawMessage `json:"trace,omitempty"`
}

// oracleOut is a fresh typed reply for the route.
func oracleOut(path string) any {
	switch path {
	case statRoute.path:
		return new(statReply)
	case batchRoute.path:
		return new(batchReply)
	case rangeRoute.path:
		return new(rangeReply)
	default:
		return new(knnReply)
	}
}

// oracleBody is the merged body the decode path wrote for the route over
// per-group bodies (nil for a missing group); ok is false when some body
// did not decode (the attempt failed as torn).
func oracleBody(path string, req []byte, bodies [][]byte, missing []int) ([]byte, bool) {
	outs := make([]any, len(bodies))
	for g, b := range bodies {
		if b == nil {
			continue
		}
		outs[g] = oracleOut(path)
		if json.Unmarshal(b, outs[g]) != nil {
			return nil, false
		}
	}
	var resp map[string]interface{}
	switch path {
	case statRoute.path:
		resp = oracleMergeStat(outs)
	case batchRoute.path:
		resp = oracleMergeBatch(outs)
	case rangeRoute.path:
		resp = oracleMergeRange(outs)
	default:
		resp = oracleMergeKNN(req, outs, missing)
	}
	if len(missing) > 0 {
		resp["missingShards"] = missing
	}
	var buf bytes.Buffer
	if json.NewEncoder(&buf).Encode(resp) != nil {
		return nil, false
	}
	return buf.Bytes(), true
}

func oracleMergeStat(outs []any) map[string]interface{} {
	matches := make([]matchJSON, 0)
	var plan json.RawMessage
	for _, o := range outs {
		if o == nil {
			continue
		}
		sr := o.(*statReply)
		if plan == nil {
			plan = sr.Plan
		}
		matches = append(matches, sr.Matches...)
	}
	return map[string]interface{}{"matches": matches, "plan": plan}
}

func oracleMergeBatch(outs []any) map[string]interface{} {
	var results [][]matchJSON
	for _, o := range outs {
		if o == nil {
			continue
		}
		br := o.(*batchReply)
		if results == nil {
			results = make([][]matchJSON, len(br.Results))
			for i := range results {
				results[i] = make([]matchJSON, 0)
			}
		}
		for i, ms := range br.Results {
			if i < len(results) {
				results[i] = append(results[i], ms...)
			}
		}
	}
	return map[string]interface{}{"results": results}
}

func oracleMergeRange(outs []any) map[string]interface{} {
	matches := make([]matchJSON, 0)
	var blocks json.RawMessage
	for _, o := range outs {
		if o == nil {
			continue
		}
		rr := o.(*rangeReply)
		if blocks == nil {
			blocks = rr.Blocks
		}
		matches = append(matches, rr.Matches...)
	}
	return map[string]interface{}{"matches": matches, "blocks": blocks}
}

func oracleMergeKNN(body []byte, outs []any, missing []int) map[string]interface{} {
	lists := make([][]matchJSON, 0, len(outs))
	exact := len(missing) == 0
	scanned, total := 0, 0
	for _, o := range outs {
		if o == nil {
			continue
		}
		kr := o.(*knnReply)
		lists = append(lists, kr.Matches)
		exact = exact && kr.Exact
		scanned += kr.Scanned
		total += len(kr.Matches)
	}
	var kreq struct {
		K int `json:"k"`
	}
	k := total
	if json.Unmarshal(body, &kreq) == nil && kreq.K > 0 {
		k = kreq.K
	}
	merged := make([]matchJSON, 0, min(k, total))
	idx := make([]int, len(lists))
	for len(merged) < k {
		best := -1
		for g, ms := range lists {
			if idx[g] >= len(ms) {
				continue
			}
			if best == -1 || ms[idx[g]].Dist < lists[best][idx[best]].Dist {
				best = g
			}
		}
		if best == -1 {
			break
		}
		merged = append(merged, lists[best][idx[best]])
		idx[best]++
	}
	return map[string]interface{}{"matches": merged, "exact": exact, "scanned": scanned}
}

// canonicalBody re-encodes a backend body the way s3serve writes it —
// every member the route sends, keys sorted, each match in its one
// form — from what the decode path read out of it; ok is false when it
// does not decode or lacks a member s3serve always sends.
func canonicalBody(path string, body []byte) ([]byte, bool) {
	out := oracleOut(path)
	if json.Unmarshal(body, out) != nil {
		return nil, false
	}
	nonNil := func(ms []matchJSON) []matchJSON {
		if ms == nil {
			return []matchJSON{}
		}
		return ms
	}
	m := map[string]interface{}{}
	switch o := out.(type) {
	case *statReply:
		if o.Plan == nil {
			return nil, false
		}
		m["matches"], m["plan"], m["trace"] = nonNil(o.Matches), o.Plan, o.Trace
	case *batchReply:
		results := make([][]matchJSON, len(o.Results))
		for i, ms := range o.Results {
			results[i] = nonNil(ms)
		}
		m["results"], m["trace"] = results, o.Trace
	case *rangeReply:
		if o.Blocks == nil {
			return nil, false
		}
		m["matches"], m["blocks"], m["trace"] = nonNil(o.Matches), o.Blocks, o.Trace
	case *knnReply:
		m["matches"], m["exact"], m["scanned"], m["trace"] = nonNil(o.Matches), o.Exact, o.Scanned, o.Trace
	}
	if m["trace"].(json.RawMessage) == nil {
		delete(m, "trace")
	}
	var buf bytes.Buffer
	if json.NewEncoder(&buf).Encode(m) != nil {
		return nil, false
	}
	return buf.Bytes(), true
}
