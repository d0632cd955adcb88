package main

// One workload, end to end: inputs -> set-up (timed, several times) ->
// answer verification -> warm -> closed loop -> paced open loop ->
// end-state checks -> (optionally) the traced layers pass.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// recordBytes is the on-disk size of one exact record (docs/FORMAT.md:
// 20-byte key, 20-byte fingerprint, id, tc, x, y).
const recordBytes = dims*order/8 + dims + 12

// result is everything one workload run measured.
type result struct {
	Workload  string             `json:"workload"`
	Metrics   map[string]summary `json:"metrics"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Correct   bool               `json:"correct"`
	Problems  []string           `json:"problems,omitempty"`
	// AnswersDigest is the digest of the probe answers; it must be equal
	// across the three read-only workloads of one seed.
	AnswersDigest string `json:"answers_digest"`
	// Shares is where the client's time went in the traced pass: each
	// layer's self time over the client round trips, search requests
	// only. Coverage is their sum; what is missing from 1 no span names.
	Shares   map[string]float64 `json:"layers_share,omitempty"`
	Coverage float64            `json:"layers_coverage,omitempty"`

	spans []span
}

func (r *result) set(name string, s summary) { r.Metrics[name] = s }

func (r *result) problem(format string, args ...interface{}) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

func (r *result) count(samples []sample) {
	a, f := tally(samples)
	r.Attempted += a
	r.Failed += f
}

// environment is a workload's prepared files plus how to open its
// topology.
type environment struct {
	in     *inputs
	cfg    config
	dir    string
	depth  int
	opened int
}

func (e *environment) served() []record { return e.in.Corpus.records[:e.in.Served] }

func (e *environment) liveServe() liveServe {
	ls := liveServe{Depth: e.depth}
	if e.in.Workload == wlCold {
		ls.Cold = true
		ls.CacheBytes = int64(e.cfg.CacheShare * float64(e.cfg.Records) * recordBytes)
	}
	return ls
}

// opened is one set-up: the running topology, the directory its index
// files were written to and a client connection to it.
type opened struct {
	t      *topology
	dir    string
	client *client
}

func (o *opened) close() error {
	o.client.close()
	err := o.t.Close()
	if o.dir != "" {
		if rerr := os.RemoveAll(o.dir); err == nil {
			err = rerr
		}
	}
	return err
}

// open is the set-up users wait for: build the index from the records
// (the static workloads: key, sort and write the archive files, the
// s3index step; the live workloads: ingest, seal and flush the preload),
// open it with the serving options, start the servers, and pass a
// health check.
func (e *environment) open(hk hooks) (*opened, error) {
	e.opened++
	o := &opened{dir: filepath.Join(e.dir, fmt.Sprintf("open%d", e.opened))}
	err := os.Mkdir(o.dir, 0o755)
	if err == nil {
		o.t, err = e.build(o.dir, hk)
	}
	if err != nil {
		os.RemoveAll(o.dir)
		return nil, err
	}
	o.client = newClient(o.t.URL)
	if _, err := o.client.get(o.t.URL + "/healthz"); err != nil {
		o.close()
		return nil, fmt.Errorf("health check: %w", err)
	}
	return o, nil
}

func (e *environment) build(dir string, hk hooks) (*topology, error) {
	switch e.in.Workload {
	case wlResident:
		archives, err := writeArchives(dir, e.served(), 1)
		if err != nil {
			return nil, err
		}
		return openResident(archives[0], e.depth, hk)
	case wlFleet:
		archives, err := writeArchives(dir, e.served(), 2)
		if err != nil {
			return nil, err
		}
		return openFleet(archives, 2, e.depth, hk)
	case wlCold, wlIngest:
		segments := 1
		if e.in.Workload == wlCold {
			segments = 4
		}
		if err := preloadLive(dir, e.served(), segments, e.liveServe()); err != nil {
			return nil, err
		}
		return openLive(dir, e.liveServe(), hk)
	}
	return nil, fmt.Errorf("unknown workload %q", e.in.Workload)
}

// scrape sums the /metrics expositions of every process of the topology.
func scrape(o *opened) (metricSet, error) {
	all := metricSet{}
	for _, u := range o.t.MetricsURLs {
		text, err := o.client.get(u)
		if err != nil {
			return nil, err
		}
		all.add(parseMetrics(text))
	}
	return all, nil
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func dirBytes(dir string) int64 {
	var n int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n
}

// primaryKind is the request kind latency percentiles are taken over:
// the workload's key-frame (or single-fingerprint) statistical request.
// cold_mixed alternates it with range queries a tenth as long; a median
// over that two-humped mix would sit on the gap between the humps.
func primaryKind(in *inputs) reqKind { return in.Clients[0][0].Kind }

// runWorkload runs one workload. layers selects the traced pass; when
// e2e is false the set-up is done once (setup_s is not reported).
func runWorkload(name string, seed int64, cfg config, e2e, layers bool, scratch string) (*result, error) {
	res := &result{Workload: name, Metrics: map[string]summary{}, Correct: true}

	tGen := time.Now()
	in := genInputs(name, seed, cfg)
	dir, err := os.MkdirTemp(scratch, name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	env := &environment{in: in, cfg: cfg, dir: dir, depth: pinnedDepth(cfg.Records)}
	res.set("harness.gen_s", single(time.Since(tGen).Seconds()))

	// The oracle: a fresh resident engine over the served records.
	ref, err := openReference(env.served(), env.depth)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	want, err := runProbe(directAnswerer(ref), in.Probe, nil, 0)
	if err != nil {
		return nil, fmt.Errorf("reference probe: %w", err)
	}
	ref = nil

	// Set-up, timed: index build, open, server start, health check. It
	// is repeated and the median reported. The answer-verification probe
	// that follows is not in it: the probe is the same few hundred
	// queries on every commit and would otherwise be nine tenths of the
	// figure, hiding work a change moves into set-up.
	setups := cfg.Setups[name]
	if !e2e {
		setups = 1
	}
	var (
		o      *opened
		setupS []float64
	)
	defer func() {
		if o != nil {
			o.close()
		}
	}()
	for k := 0; k < setups; k++ {
		if o != nil {
			err := o.close()
			o = nil
			if err != nil {
				return nil, fmt.Errorf("close: %w", err)
			}
		}
		t0 := time.Now()
		if o, err = env.open(hooks{}); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	if e2e {
		res.set("setup_s", summarize(setupS))
	}
	got, err := runProbe(httpAnswerer(o.client), in.Probe, env.served(), cfg.RangeChecks)
	probeOK := err == nil && got.Digest == want.Digest
	if err != nil {
		res.problem("%v", err)
	} else if !probeOK {
		res.problem("answers_digest %s differs from the resident oracle's %s", got.Digest, want.Digest)
	}
	res.AnswersDigest = got.Digest

	// retrieval_rate: the paper's statistical contract on a fixed set.
	if probeOK && e2e {
		rr, err := runProbe(httpAnswerer(o.client), in.Retrieval, nil, 0)
		if err != nil {
			res.problem("retrieval set: %v", err)
		} else {
			rate := float64(rr.Hits) / float64(rr.Asked)
			res.set("retrieval_rate", summary{Value: rate, N: rr.Asked})
			if rate < retrievalFloor {
				res.problem("retrieval_rate %.4f below the floor %.2f", rate, retrievalFloor)
			}
		}
	}

	acks, err := runPhases(env, o, res)
	if err != nil {
		return nil, err
	}

	if name == wlIngest {
		if err := checkDurability(env, o, acks, res); err != nil {
			return nil, err
		}
		o = nil // checkDurability closed it
	} else {
		err := o.close()
		o = nil
		if err != nil {
			return nil, fmt.Errorf("close: %w", err)
		}
	}

	if layers {
		if err := runLayers(env, res); err != nil {
			return nil, fmt.Errorf("layers pass: %w", err)
		}
	}
	if share := float64(res.Failed) / float64(res.Attempted); share > failedShareBound {
		res.problem("failed_share %.5f above %.3f (%d of %d requests)", share, failedShareBound, res.Failed, res.Attempted)
	}
	return res, nil
}

// retrievalFloor is the lowest retrieval_rate a run may report. The
// issue asked for alpha-0.03, but the seed commit itself retrieves 0.75
// at alpha = 0.8 on this corpus (EXPERIMENTS.md, figure 5, reports 67 %
// on the repository's own): the floor only catches a broken index, and
// the metric's regression bound guards the rate between commits.
const retrievalFloor = alpha - 0.10

// failedShareBound is the largest share of requests that may error, be
// refused or time out before the run fails.
const failedShareBound = 0.001

// runPhases is warm -> closed -> paced on one open topology, with the
// ingest workload's writer running beside the reader throughout. It
// returns what the server acknowledged of each write slot.
func runPhases(env *environment, o *opened, res *result) ([]writeAck, error) {
	in, cfg := env.in, env.cfg
	var acks []writeAck

	clients := make([]*client, len(in.Clients))
	cursors := make([]*cursor, len(in.Clients))
	for i := range clients {
		clients[i] = newClient(o.t.URL)
		defer clients[i].close()
		cursors[i] = &cursor{cycle: in.Clients[i]}
	}
	kind := primaryKind(in)

	before, err := scrape(o)
	if err != nil {
		return nil, err
	}

	// The writer (ingest_monitor) runs on its own connection for the
	// whole of warm + closed + paced.
	total := cfg.Warm + cfg.Closed + cfg.Paced
	t0 := time.Now()
	var (
		writes     pacedResult
		deletes    []sample
		writerDone = make(chan struct{})
	)
	if len(in.Writes) > 0 {
		wc := newClient(o.t.URL)
		defer wc.close()
		go func() {
			defer close(writerDone)
			writes, acks, deletes = writerLoop(wallClock{t0}, wc, in.Writes, cfg.IngestPerSec, total)
		}()
	} else {
		close(writerDone)
	}

	warm := closedLoop(wallClock{time.Now()}, clients, cursors, cfg.Warm)
	res.count(warm)

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuSeconds()
	closedStart := time.Since(t0)
	closed := closedLoop(wallClock{time.Now()}, clients, cursors, cfg.Closed)
	cpu1 := cpuSeconds()
	runtime.ReadMemStats(&ms1)
	res.count(closed)

	ws := cutWindows(closed, cfg.Closed, windows, kind)
	res.set("search_qps", summarize(ws.QPS))
	res.set("search_p50_ms", summarize(ws.P50))
	res.set("search_p95_ms", summarize(ws.P95))
	if in.Workload == wlCold {
		res.set("range_p95_ms", summarize(cutWindows(closed, cfg.Closed, windows, kindRange).P95))
	} else {
		res.set("range_p95_ms", notApplicable)
	}

	var answered float64
	for _, s := range closed {
		if s.OK {
			answered += float64(s.Weight)
		}
	}
	if answered > 0 {
		res.set("go.cpu_s_per_kquery", single((cpu1-cpu0)/answered*1000))
		res.set("go.alloc_bytes_per_query", single(float64(ms1.TotalAlloc-ms0.TotalAlloc)/answered))
		res.set("go.allocs_per_query", single(float64(ms1.Mallocs-ms0.Mallocs)/answered))
	}
	res.set("go.gc_pause_ms", single(float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6))
	res.set("go.gc_cycles", single(float64(ms1.NumGC-ms0.NumGC)))

	pacedStart := time.Since(t0)
	paced := pacedLoop(wallClock{time.Now()}, clients, cursors, cfg.PacedRPS[in.Workload], cfg.Paced)
	res.count(paced.Samples)
	if share := paced.sentShare(); share < pacedMinSent {
		res.problem("paced phase sent %.1f%% of due requests (< %.0f%%): growing backlog at %.0f rps",
			100*share, 100*pacedMinSent, cfg.PacedRPS[in.Workload])
	}
	res.set("paced_p95_ms", summarize(windowP95(paced.Samples, 0, cfg.Paced, windows, sample.latency)))
	res.set("harness.paced_late_p95_ms", summarize(windowP95(paced.Samples, 0, cfg.Paced, windows,
		func(s sample) time.Duration { return s.Start - s.Due })))

	<-writerDone
	if len(in.Writes) > 0 {
		res.count(writes.Samples)
		res.count(deletes)
		if share := writes.sentShare(); share < pacedMinSent {
			res.problem("writer sent %.1f%% of due ingest batches (< %.0f%%)", 100*share, 100*pacedMinSent)
		}
		// Ingest acknowledgement latency from due time, over the closed
		// and paced windows (the warm share is discarded).
		p95 := windowP95(writes.Samples, closedStart, pacedStart-closedStart, windows, sample.latency)
		p95 = append(p95, windowP95(writes.Samples, pacedStart, cfg.Paced, windows, sample.latency)...)
		res.set("ingest_p95_ms", summarize(p95))
	} else {
		res.set("ingest_p95_ms", notApplicable)
	}

	// Two collections: the first empties the sync.Pools (response
	// buffers, query contexts) into the victim cache, the second frees it.
	runtime.GC()
	runtime.GC()
	var ms2 runtime.MemStats
	runtime.ReadMemStats(&ms2)
	res.set("heap_live_mb", single(float64(ms2.HeapAlloc)/1e6))

	after, err := scrape(o)
	if err != nil {
		return nil, err
	}
	writePathMetrics(env, o, delta(before, after), after, acks, res)
	return acks, nil
}

// writePathMetrics are the live write path's work counts over the timed
// phases (warm included: background work does not stop at phase
// boundaries), from the servers' /metrics.
func writePathMetrics(env *environment, o *opened, d, after metricSet, acks []writeAck, res *result) {
	if !after.has("live_seal_seconds_count") || len(env.in.Writes) == 0 {
		for _, m := range []string{"core.live.seals", "core.live.compactions", "core.live.seal_s", "core.live.commit_s",
			"core.live.compaction_s", "core.live.segments_end", "core.live.persist_retries",
			"store.write_amp", "store.space_amp", "store.syncs_per_krecord"} {
			res.set(m, notApplicable)
		}
		return
	}
	acked := 0
	for _, a := range acks {
		if a.Ingested {
			acked += ingestBatchRecords
		}
	}
	res.set("core.live.seals", single(d.sum("live_seal_seconds_count")))
	res.set("core.live.seal_s", single(d.sum("live_seal_seconds_sum")))
	res.set("core.live.commit_s", single(d.sum("live_commit_seconds_sum")))
	res.set("core.live.compactions", single(d.sum("live_compactions_total")))
	res.set("core.live.compaction_s", single(d.sum("live_compaction_seconds_sum")))
	res.set("core.live.segments_end", single(after.sum("live_segments")))
	res.set("core.live.persist_retries", single(d.sum("live_persist_retries_total")))
	if acked > 0 {
		res.set("store.write_amp", single(d.sum("store_written_bytes_total")/float64(acked*recordBytes)))
		res.set("store.syncs_per_krecord", single((d.sum("store_syncs_total")+d.sum("store_dir_syncs_total"))/float64(acked)*1000))
	}
	if live := after.sum("live_records"); live > 0 {
		res.set("store.space_amp", single(float64(dirBytes(o.dir))/(live*recordBytes)))
	}
}

// checkDurability ends the ingest workload: flush; the served answers
// must equal those of a fresh resident index over (preload +
// acknowledged ingests - acknowledged deletes); then close, reopen the
// directory, and find the same answers and record count (every
// acknowledged write readable after a clean restart). It closes o.
func checkDurability(env *environment, o *opened, acks []writeAck, res *result) error {
	in := env.in
	flush := request{Method: "POST", Path: "/flush"}
	if ok, _, _, err := o.client.do(&flush, false); !ok {
		res.problem("flush: %v", err)
	}

	// Replay the acknowledged writes in schedule order.
	expect := append([]record(nil), env.served()...)
	for k, a := range acks {
		if a.Ingested {
			expect = append(expect, in.Writes[k].Ingest.Records...)
		}
		if a.Deleted {
			id, kept := in.Writes[k].Delete.ID, expect[:0]
			for _, r := range expect {
				if r.ID != id {
					kept = append(kept, r)
				}
			}
			expect = kept
		}
	}
	ref, err := openReference(expect, env.depth)
	if err != nil {
		return fmt.Errorf("end-state reference: %w", err)
	}
	want, err := runProbe(directAnswerer(ref), in.Probe, nil, 0)
	if err != nil {
		return fmt.Errorf("end-state reference probe: %w", err)
	}

	check := func(when string, op *opened) {
		got, err := runProbe(httpAnswerer(op.client), in.Probe, expect, env.cfg.RangeChecks)
		switch {
		case err != nil:
			res.problem("%s: %v", when, err)
		case got.Digest != want.Digest:
			res.problem("%s: answers_digest %s, want %s (fresh index over acknowledged writes)", when, got.Digest, want.Digest)
		}
		if n := int(op.t.Stats()["live.records"]); n != len(expect) {
			res.problem("%s: %d records served, %d acknowledged", when, n, len(expect))
		}
	}
	check("after flush", o)

	// Clean restart: close, reopen the same directory.
	dir := o.dir
	o.dir = "" // keep the directory across close
	if err := o.close(); err != nil {
		return fmt.Errorf("close before reopen: %w", err)
	}
	defer os.RemoveAll(dir)
	t, err := openLive(dir, env.liveServe(), hooks{})
	if err != nil {
		res.problem("reopen: %v", err)
		return nil
	}
	re := &opened{t: t, client: newClient(t.URL)}
	check("after reopen", re)
	if err := re.close(); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("close after reopen: %w", err)
	}
	return nil
}
