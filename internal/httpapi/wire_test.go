package httpapi

import (
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"s3cbcd/internal/core"
)

// TestAppendFloatMatchesEncodingJSON: appendFloat writes every float64
// byte for byte as json.Marshal does — random bit patterns (every
// magnitude), random values near the format switch points, and the
// edges: zeros, subnormals, 1e-7, 1e21 and negatives.
func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	fs := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, math.SmallestNonzeroFloat64 * 12345,
		2.2250738585072014e-308 / 3, 1e-7, -1e-7, 1e-6, 9.999999999999999e-7, 1.5e-9, 1e21, -1e21,
		1e20, 999999999999999999999, 123456789e12, 1e22, math.MaxFloat64, -math.MaxFloat64, 0.1, -2.5, 1}
	for len(fs) < 100000 {
		f := math.Float64frombits(rng.Uint64())
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		fs = append(fs, f, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(60)-30)))
	}
	var b []byte
	for _, f := range fs {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if b = appendFloat(b[:0], f); string(b) != string(want) {
			t.Fatalf("appendFloat(%b) = %s, json.Marshal = %s", f, b, want)
		}
	}
}

// TestAppendMatchesMatchesEncodingJSON: the match encoder equals
// encoding/json over the struct it replaced, dist omitted when not
// positive (statistical matches carry -1).
func TestAppendMatchesMatchesEncodingJSON(t *testing.T) {
	type matchJSON struct {
		ID   uint32  `json:"id"`
		TC   uint32  `json:"tc"`
		X    uint16  `json:"x"`
		Y    uint16  `json:"y"`
		Dist float64 `json:"dist,omitempty"`
	}
	rng := rand.New(rand.NewSource(2))
	for n := 0; n < 50; n++ {
		ms := make([]core.Match, n)
		ref := make([]matchJSON, n)
		for i := range ms {
			ms[i] = core.Match{ID: rng.Uint32(), TC: rng.Uint32(), X: uint16(rng.Intn(1 << 16)), Y: uint16(rng.Intn(1 << 16))}
			switch rng.Intn(3) {
			case 0:
				ms[i].Dist = -1
			case 1:
				ms[i].Dist = rng.Float64() * 300
			}
			ref[i] = matchJSON{ID: ms[i].ID, TC: ms[i].TC, X: ms[i].X, Y: ms[i].Y, Dist: max(ms[i].Dist, 0)}
		}
		want, _ := json.Marshal(ref)
		if got := appendMatches(nil, ms); string(got) != string(want) {
			t.Fatalf("appendMatches:\n got  %s\n want %s", got, want)
		}
	}
}

// TestSearchBodyCap: on every search route a body of exactly
// MaxRequestBody bytes decodes and searches, and one byte more answers
// 413 with the router's error body without reaching the engine.
func TestSearchBodyCap(t *testing.T) {
	s, g := gateServer(-1)
	close(g.release)
	ts := httptest.NewServer(s)
	defer ts.Close()
	head := `{"fingerprint":[1,2,3,4],"fingerprints":[[1,2,3,4]],"alpha":0.8,"sigma":5,"epsilon":3,"k":2`
	body := func(n int) string { return head + strings.Repeat(" ", n-len(head)-1) + "}" }
	for _, path := range []string{"/search/statistical", "/search/statistical/batch", "/search/range", "/search/knn"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body(MaxRequestBody+1)))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || string(raw) != `{"error":"request body exceeds 8388608 bytes"}`+"\n" {
			t.Fatalf("%s one byte over the cap: status %d body %s", path, resp.StatusCode, raw)
		}
		if n := len(g.started); n != 0 {
			t.Fatalf("%s: an oversized body reached the engine", path)
		}

		resp, err = http.Post(ts.URL+path, "application/json", strings.NewReader(body(MaxRequestBody)))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ = io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s at the cap: status %d body %s", path, resp.StatusCode, raw)
		}
		if n := len(g.started); n != 1 {
			t.Fatalf("%s at the cap: %d searches, want 1", path, n)
		}
		<-g.started
	}
}

// BenchmarkStatReply times encoding one statistical response the size
// the benchmark's queries return (~184 matches) into a reused buffer.
func BenchmarkStatReply(b *testing.B) {
	ms := make([]core.Match, 184)
	for i := range ms {
		ms[i] = core.Match{ID: uint32(1000 + 7*i), TC: uint32(25 * i), X: uint16(i), Y: uint16(2 * i), Dist: -1}
	}
	plan := core.Plan{Blocks: 41, Depth: 12, DescentNodes: 1234, FilterIters: 9, Mass: 0.8012345678901234, Threshold: 1.2345e-7}
	var out []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out = appendMatches(append(out[:0], `{"matches":`...), ms)
		out = AppendPlan(append(out, `,"plan":`...), plan)
	}
	b.SetBytes(int64(len(out)))
}
