package httpapi

// Wire byte-identity: every search route's response body is pinned to
// bytes generated before the typed encoder replaced encoding/json
// (testdata/golden.txt, written by `go test -run TestSearchBodiesGolden
// -update` at that commit and not regenerated since). A static and a
// live server answer; the cases cover empty answers, matches with and
// without a "dist" member, and plans whose floats print in both of
// encoding/json's formats.

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.txt from the running code")

// goldenCase is one request whose response body is pinned.
type goldenCase struct {
	name, path, body string
}

// searchCases builds requests over every search route for a server
// holding fps (each row a stored fingerprint); rng draws the fresh one,
// each component below side.
func searchCases(prefix string, fps [][]int, side int, rng *rand.Rand) []goldenCase {
	fresh := make([]int, len(fps[0]))
	for i := range fresh {
		fresh[i] = rng.Intn(side)
	}
	enc := func(v []int) string {
		raw, _ := json.Marshal(v)
		return string(raw)
	}
	a, b, c, r := enc(fps[0]), enc(fps[len(fps)/2]), enc(fps[len(fps)-1]), enc(fresh)
	return []goldenCase{
		{prefix + " stat self", "/search/statistical", fmt.Sprintf(`{"fingerprint":%s,"alpha":0.8,"sigma":10}`, a)},
		{prefix + " stat wide", "/search/statistical", fmt.Sprintf(`{"fingerprint":%s,"alpha":0.95,"sigma":30}`, b)},
		{prefix + " stat tail", "/search/statistical", fmt.Sprintf(`{"fingerprint":%s,"alpha":0.99999,"sigma":60}`, c)},
		{prefix + " stat narrow", "/search/statistical", fmt.Sprintf(`{"fingerprint":%s,"alpha":0.05,"sigma":0.5}`, r)},
		{prefix + " batch", "/search/statistical/batch", fmt.Sprintf(`{"fingerprints":[%s,%s,%s],"alpha":0.8,"sigma":10}`, a, r, c)},
		{prefix + " range self", "/search/range", fmt.Sprintf(`{"fingerprint":%s,"epsilon":0.5}`, a)},
		{prefix + " range wide", "/search/range", fmt.Sprintf(`{"fingerprint":%s,"epsilon":140}`, b)},
		{prefix + " range empty", "/search/range", fmt.Sprintf(`{"fingerprint":%s,"epsilon":0}`, r)},
		{prefix + " knn self", "/search/knn", fmt.Sprintf(`{"fingerprint":%s,"k":5}`, c)},
		{prefix + " knn fresh", "/search/knn", fmt.Sprintf(`{"fingerprint":%s,"k":3,"maxLeaves":2}`, r)},
	}
}

// postBody returns the status and raw body of one JSON POST.
func postBody(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// recordCases appends "### name status\nbody" for each case to out.
func recordCases(t *testing.T, out *bytes.Buffer, base string, cases []goldenCase) {
	t.Helper()
	for _, c := range cases {
		status, raw := postBody(t, base+c.path, c.body)
		fmt.Fprintf(out, "### %s %d\n%s", c.name, status, raw)
	}
}

// checkGolden compares got with the golden file section by section
// (or rewrites the file under -update).
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ws, gs := bytes.Split(want, []byte("### ")), bytes.Split(got, []byte("### "))
	for i := 0; i < len(ws) && i < len(gs); i++ {
		if !bytes.Equal(ws[i], gs[i]) {
			t.Fatalf("body differs from %s:\nwant ### %s\ngot  ### %s", path, ws[i], gs[i])
		}
	}
	if len(ws) != len(gs) {
		t.Fatalf("%d cases, %s has %d", len(gs)-1, path, len(ws)-1)
	}
}

func TestSearchBodiesGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	var got bytes.Buffer

	static, db := testServer(t)
	sts := httptest.NewServer(static)
	defer sts.Close()
	var fps [][]int
	for _, i := range []int{42, 7, 300, 599} {
		fps = append(fps, fpOf(db, i))
	}
	recordCases(t, &got, sts.URL, searchCases("static", fps, 256, rng))

	live, _ := liveTestServer(t)
	lts := httptest.NewServer(live)
	defer lts.Close()
	var lfps [][]int
	for i := 0; i < 11; i++ {
		lfps = append(lfps, []int{rng.Intn(32), rng.Intn(32), rng.Intn(32), rng.Intn(32)})
	}
	recordCases(t, &got, lts.URL, searchCases("live empty", lfps, 32, rng))
	if resp, out := post(t, lts, "/ingest", ingestBody(9, lfps...)); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %v", out)
	}
	recordCases(t, &got, lts.URL, searchCases("live", lfps, 32, rng))

	checkGolden(t, "testdata/golden.txt", got.Bytes())
}

// TestTracedResponseBodyIdentical pins byte-identity on every search
// route: a traced body is the untraced body with one "trace" member
// appended before the closing brace, and nothing else changed.
func TestTracedResponseBodyIdentical(t *testing.T) {
	s, db := testServer(t)
	ts := httptest.NewServer(s)
	defer ts.Close()
	fps := [][]int{fpOf(db, 42), fpOf(db, 43), fpOf(db, 44)}
	for _, c := range searchCases("static", fps, 256, rand.New(rand.NewSource(1))) {
		_, plain := postBody(t, ts.URL+c.path, c.body)
		_, traced := postBody(t, ts.URL+c.path+"?trace=1", c.body)
		checkTracedBody(t, c.name, plain, traced)
	}
}

// checkTracedBody asserts traced == plain with `,"trace":{...}` spliced
// in before plain's closing "}\n".
func checkTracedBody(t *testing.T, name string, plain, traced []byte) {
	t.Helper()
	head := bytes.TrimSuffix(plain, []byte("}\n"))
	rest, ok := bytes.CutPrefix(traced, head)
	if len(head) == len(plain) || !ok {
		t.Fatalf("%s: traced body does not extend the untraced one:\nuntraced %s\ntraced   %s", name, plain, traced)
	}
	tr, ok := bytes.CutPrefix(rest, []byte(`,"trace":`))
	if !ok || !bytes.HasSuffix(tr, []byte("}\n")) {
		t.Fatalf("%s: traced body adds more than a trailing trace member: %s", name, rest)
	}
	var rep map[string]json.RawMessage
	if err := json.Unmarshal(tr[:len(tr)-2], &rep); err != nil || rep["totalMicros"] == nil {
		t.Fatalf("%s: trace member %s is not a trace report (%v)", name, tr, err)
	}
}
