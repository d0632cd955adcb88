package router

// Wire byte-identity through the coordinator: the merged body of every
// search route over a 2-group × 2-replica fleet is pinned to bytes
// generated before the router stopped decoding backend matches
// (testdata/golden.txt, written by `go test -run TestRouterBodiesGolden
// -update` at that commit and not regenerated since), including empty
// answers, k-NN distances and degraded replies carrying missingShards.

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"testing"

	"s3cbcd/internal/obs"
	"s3cbcd/internal/store"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.txt from the running code")

// wireCases is one request per search route shape over the corpus
// fingerprints a, b and a fresh fingerprint r.
func wireCases(a, b, r []byte) [][2]string {
	return [][2]string{
		{"/search/statistical", statBody(a)},
		{"/search/statistical", fmt.Sprintf(`{"fingerprint":%s,"alpha":0.99999,"sigma":60}`, fpJSON(b))},
		{"/search/statistical", fmt.Sprintf(`{"fingerprint":%s,"alpha":0.05,"sigma":0.5}`, fpJSON(r))},
		{"/search/statistical/batch", fmt.Sprintf(`{"fingerprints":[%s,%s,%s],"alpha":0.9,"sigma":20}`, fpJSON(a), fpJSON(r), fpJSON(b))},
		{"/search/range", fmt.Sprintf(`{"fingerprint":%s,"epsilon":120}`, fpJSON(a))},
		{"/search/range", fmt.Sprintf(`{"fingerprint":%s,"epsilon":0}`, fpJSON(r))},
		{"/search/knn", fmt.Sprintf(`{"fingerprint":%s,"k":6}`, fpJSON(b))},
		{"/search/knn", fmt.Sprintf(`{"fingerprint":%s,"k":1}`, fpJSON(r))},
	}
}

// wireFleet builds the pinned fixture: a corpus cut into two key-range
// groups, each served by two replicas (seed fixed — the goldens do not
// follow FAULT_SEED).
func wireFleet(t *testing.T) (groups [][]string, a, b, r []byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(25))
	curve := testCurve(t)
	ordered := sortedRecords(store.MustBuild(curve, randomRecords(rng, 400)))
	for _, chunk := range splitGroups(rng, ordered, 2) {
		groups = append(groups, []string{apiServer(t, curve, chunk).URL, apiServer(t, curve, chunk).URL})
	}
	return groups, ordered[17].FP, ordered[333].FP, randomRecords(rng, 1)[0].FP
}

func TestRouterBodiesGolden(t *testing.T) {
	groups, a, b, r := wireFleet(t)
	_, rts := startRouter(t, Options{Groups: groups, ProbeInterval: -1})
	// Group 0 unreachable: every route answers from group 1 alone.
	dead0, dead1 := httptest.NewServer(nil), httptest.NewServer(nil)
	dead0.Close()
	dead1.Close()
	_, degraded := startRouter(t, Options{
		Groups:  [][]string{{dead0.URL, dead1.URL}, groups[1]},
		Partial: PartialDegrade, Retries: -1, ProbeInterval: -1, Logger: obs.NopLogger(),
	})

	var got bytes.Buffer
	for _, fleet := range []struct {
		name string
		ts   *httptest.Server
	}{{"fleet", rts}, {"degraded", degraded}} {
		for _, c := range wireCases(a, b, r) {
			status, raw, _ := postBytes(t, fleet.ts.URL, c[0], c[1])
			fmt.Fprintf(&got, "### %s %s %d\n%s", fleet.name, c[0], status, raw)
		}
	}

	if *update {
		if err := os.WriteFile("testdata/golden.txt", got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile("testdata/golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	ws, gs := bytes.Split(want, []byte("### ")), bytes.Split(got.Bytes(), []byte("### "))
	for i := 0; i < len(ws) && i < len(gs); i++ {
		if !bytes.Equal(ws[i], gs[i]) {
			t.Fatalf("merged body differs from the golden:\nwant ### %s\ngot  ### %s", ws[i], gs[i])
		}
	}
	if len(ws) != len(gs) {
		t.Fatalf("%d cases, golden has %d", len(gs)-1, len(ws)-1)
	}
}
