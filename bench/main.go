// Command bench is the repository's end-to-end serving benchmark: it
// hosts each workload's topology in one process exactly as cmd/s3serve
// and cmd/s3router would configure it, on loopback TCP listeners,
// drives it with real net/http clients, checks the answers, and prints
// every end-to-end and per-layer metric. See README.md.
//
//	bash bench/run.sh                                  every workload, table + JSON document
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
//	                                                   one workload; last line is the result object
//	bash bench/run.sh -compare a.json b.json           compare two documents
//	bash bench/run.sh -smoke                           all workloads, tiny sizes, a few seconds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// document is what the all-workloads mode writes: host, seed, durations
// and every metric of every workload.
type document struct {
	Host      hostInfo           `json:"host"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Durations map[string]float64 `json:"durations_s"`
	Sizes     map[string]int     `json:"sizes"`
	PacedRPS  map[string]float64 `json:"paced_rps"`
	Clients   string             `json:"clients"`
	Workloads []*result          `json:"workloads"`
	WallS     float64            `json:"wall_s"`
}

type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
}

func host() hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
	if out, err := exec.Command("uname", "-sr").Output(); err == nil {
		h.Kernel = strings.TrimSpace(string(out))
	}
	return h
}

func newDocument(seed int64, seconds float64, cfg config) *document {
	return &document{
		Host: host(), Seed: seed, Seconds: seconds,
		Durations: map[string]float64{"warm": cfg.Warm.Seconds(), "closed": cfg.Closed.Seconds(), "paced": cfg.Paced.Seconds()},
		Sizes: map[string]int{"records": cfg.Records, "preload": cfg.Preload,
			"retrieval_queries": cfg.RetrievalQueries, "windows": windows},
		PacedRPS: cfg.PacedRPS,
		Clients:  "2 connections per workload (ingest_monitor: 1 reader + 1 writer), one process",
	}
}

// printTable prints `workload metric unit value spread n` for every
// metric the run produced, in list order.
func printTable(res *result) {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			s, ok := res.Metrics[d.Name]
			if !ok {
				continue
			}
			if s.NA {
				fmt.Printf("%-15s %-32s %-6s %14s %12s %6s\n", res.Workload, d.Name, d.Unit, "n/a", "-", "-")
				continue
			}
			fmt.Printf("%-15s %-32s %-6s %14.4f %12.4f %6d\n", res.Workload, d.Name, d.Unit, s.Value, s.Spread, s.N)
		}
	}
}

func printOutcome(res *result) {
	fmt.Printf("%-15s answers_digest %s  attempted %d  failed %d  correct %v\n",
		res.Workload, res.AnswersDigest, res.Attempted, res.Failed, res.Correct)
	if res.Coverage > 0 {
		fmt.Printf("%-15s share of client time:", res.Workload)
		for _, layer := range []string{"net", "router", "httpapi", "core", "store"} {
			fmt.Printf(" %s %.1f%%", layer, 100*res.Shares[layer])
		}
		fmt.Printf("; these self times cover %.1f%%, shortfall %.1f%%\n", 100*res.Coverage, 100*math.Max(0, 1-res.Coverage))
	}
	for _, p := range res.Problems {
		fmt.Printf("%-15s PROBLEM: %s\n", res.Workload, p)
	}
	failures.Lock()
	for _, m := range failures.msgs {
		fmt.Printf("%-15s FAILED REQUEST: %s\n", res.Workload, m)
	}
	failures.msgs = nil
	failures.Unlock()
}

// contractLine is the last line of standard output in single-workload
// mode.
func contractLine(res *result, defs []metricDef) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]mv{}}
	for _, d := range defs {
		out.Metrics[d.Name] = mv{Value: res.Metrics[d.Name].Value, Unit: d.Unit}
	}
	b, _ := json.Marshal(out)
	return string(b)
}

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "", "run one workload and end with the result object (default: all four)")
		seed     = flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 16, "measured time per workload (closed + paced), split 4:3")
		trace    = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
		traceOut = flag.String("trace-out", filepath.Join(".bench_build", "spans.json"), "span file written by the traced pass")
		out      = flag.String("out", "", "all-workloads mode: also write the JSON document to this file")
		smoke    = flag.Bool("smoke", false, "tiny sizes and sub-second phases: every workload end to end in a few seconds")
		compare  = flag.Bool("compare", false, "compare two JSON documents: -compare a.json b.json")
	)
	flag.Parse()
	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}

	if *compare {
		if flag.NArg() != 2 {
			return fail(fmt.Errorf("usage: -compare a.json b.json"))
		}
		ok, err := compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout)
		if err != nil {
			return fail(err)
		}
		if !ok {
			return 1
		}
		return 0
	}

	cfg := fullConfig(*seconds)
	if *smoke {
		cfg = smokeConfig()
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return fail(err)
	}
	scratch, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(scratch)

	if *workload != "" {
		if _, ok := whyWorkload[*workload]; !ok {
			return fail(fmt.Errorf("unknown workload %q (have %s)", *workload, strings.Join(workloadNames, ", ")))
		}
		layers := *trace != 0
		res, err := runWorkload(*workload, *seed, cfg, !layers, layers, scratch)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", *workload, err))
		}
		defs := endToEnd
		if layers {
			defs = perLayer
			if err := writeSpans(*traceOut, map[string][]span{res.Workload: res.spans}); err != nil {
				return fail(err)
			}
		}
		printTable(res)
		printOutcome(res)
		if !res.Correct {
			return 1
		}
		fmt.Println(contractLine(res, defs))
		return 0
	}

	t0 := time.Now()
	doc := newDocument(*seed, *seconds, cfg)
	spans := map[string][]span{}
	failed := false
	for _, name := range workloadNames {
		res, err := runWorkload(name, *seed, cfg, true, true, scratch)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", name, err))
		}
		printTable(res)
		printOutcome(res)
		doc.Workloads = append(doc.Workloads, res)
		spans[name] = res.spans
		failed = failed || !res.Correct
	}
	// Same corpus, same answers: the read-only topologies must agree.
	digests := map[string]bool{}
	for _, r := range doc.Workloads {
		if r.Workload != wlIngest {
			digests[r.AnswersDigest] = true
		}
	}
	if len(digests) != 1 {
		keys := make([]string, 0, len(digests))
		for k := range digests {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Printf("PROBLEM: answers_digest differs across the read-only workloads: %s\n", strings.Join(keys, " "))
		failed = true
	}
	if err := writeSpans(*traceOut, spans); err != nil {
		return fail(err)
	}
	doc.WallS = time.Since(t0).Seconds()
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(b))
	if *out != "" {
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			return fail(err)
		}
	}
	if failed {
		return 1
	}
	return 0
}
