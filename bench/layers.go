package main

// The traced pass. A fixed script of the workload's own requests is
// replayed by one sequential client, so counts repeat exactly, three
// times, each against a freshly opened copy of the topology so cache
// history is identical at every level:
//
//  1. bare, over loopback HTTP;
//  2. over loopback HTTP with the harness's span recorders around every
//     http.Handler and the store filesystem seam, and the servers'
//     /metrics scraped before and after;
//  3. straight into the engine (core.Searcher) with the decoded
//     fingerprints, then fingerprint by fingerprint for the plan /
//     refine split and the plan's exact work counts.
//
// (1) against (2) is the tracing overhead. End-to-end metrics are never
// taken from this pass.

import (
	"fmt"
	"time"
)

// perQuerySample is how many leading fingerprints of each script
// request are replayed one by one in step 3.
const perQuerySample = 4

func isSearch(k reqKind) bool { return k == kindStatBatch || k == kindStatSingle || k == kindRange }

// replay sends the script sequentially and returns each request's
// round-trip time and answer body.
func replay(o *opened, script []request, rec *recorder) ([]time.Duration, [][]byte, []int64, error) {
	rtt := make([]time.Duration, len(script))
	bodies := make([][]byte, len(script))
	sizes := make([]int64, len(script))
	for i := range script {
		if rec != nil {
			rec.cur.Store(int64(i))
		}
		t0 := time.Now()
		ok, body, n, err := o.client.do(&script[i], true)
		rtt[i] = time.Since(t0)
		if rec != nil {
			rec.add("client", t0, rtt[i], int(n))
			rec.cur.Store(-1)
		}
		if !ok {
			return nil, nil, nil, fmt.Errorf("script request %d (%v): %w", i, script[i].Kind, err)
		}
		bodies[i], sizes[i] = body, n
	}
	return rtt, bodies, sizes, nil
}

func durs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = us(d)
	}
	return out
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func runLayers(env *environment, res *result) error {
	script := env.in.Script
	fleet := env.in.Workload == wlFleet

	// (1) bare.
	o, err := env.open(hooks{})
	if err != nil {
		return err
	}
	rtt1, bodies, respBytes, err := replay(o, script, nil)
	if cerr := o.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	// (2) traced.
	rec := newRecorder()
	if o, err = env.open(rec.hooks()); err != nil {
		return err
	}
	before, err := scrape(o)
	if err != nil {
		o.close()
		return err
	}
	statsBefore := o.t.Stats()
	rtt2, _, _, err := replay(o, script, rec)
	var after metricSet
	if err == nil {
		after, err = scrape(o)
	}
	statsAfter := o.t.Stats()
	if cerr := o.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	d := delta(before, after)
	spans := rec.finish()
	self := selfTimes(spans)
	res.spans = spans

	// (3) direct.
	if o, err = env.open(hooks{}); err != nil {
		return err
	}
	searchUS := make([]float64, len(script)) // 0 for writes
	for i := range script {
		r := &script[i]
		if !isSearch(r.Kind) {
			if err = o.t.WriteDirect(r); err != nil {
				break
			}
			continue
		}
		var dur time.Duration
		if dur, _, err = o.t.SearchDirect(r); err != nil {
			break
		}
		searchUS[i] = us(dur)
	}
	var (
		planUS, refineUS            []float64
		nodes, iters, blocks, ivals []float64
	)
	for i := 0; err == nil && i < len(script); i++ {
		r := &script[i]
		if !isSearch(r.Kind) {
			continue
		}
		for k := 0; k < len(r.Queries) && k < perQuerySample; k++ {
			kind := r.Kind
			sd, pc, _, qerr := o.t.QueryDirect(r.Queries[k], kind)
			if qerr != nil {
				err = qerr
				break
			}
			pd, perr := o.t.PlanDirect(r.Queries[k], kind)
			if perr != nil {
				err = perr
				break
			}
			planUS = append(planUS, us(pd))
			refineUS = append(refineUS, us(sd-pd))
			nodes = append(nodes, float64(pc.DescentNodes))
			iters = append(iters, float64(pc.FilterIters))
			blocks = append(blocks, float64(pc.Blocks))
			ivals = append(ivals, float64(pc.Intervals))
		}
	}
	if cerr := o.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	// Matches returned, from the bare pass's answers.
	var matches, queries, searchReqs, reqBytes, searchRespBytes float64
	for i := range script {
		r := &script[i]
		if !isSearch(r.Kind) {
			continue
		}
		got, err := decodeAnswer(r, bodies[i])
		if err != nil {
			return fmt.Errorf("script answer %d: %w", i, err)
		}
		for _, ms := range got {
			matches += float64(len(ms))
		}
		queries += float64(len(r.Queries))
		searchReqs++
		reqBytes += float64(len(r.Body))
		searchRespBytes += float64(respBytes[i])
	}

	// Span account, request by request.
	type perReq struct {
		client, outer, router, routerSelf, httpapi, storeRead time.Duration
		attempts, reads, readBytes                            int
	}
	reqs := make([]perReq, len(script))
	for i, s := range spans {
		p := &reqs[s.Req]
		switch s.Name {
		case "client":
			p.client = s.dur()
		case "router":
			p.router, p.routerSelf = s.dur(), self[i]
		case "httpapi":
			p.attempts++
			if s.dur() > p.httpapi {
				p.httpapi = s.dur() // the replica the merge waited for
			}
		case "store.read":
			if s.Parent >= 0 {
				p.storeRead += s.dur()
				p.reads++
				p.readBytes += s.Bytes
			}
		}
	}
	var (
		netSelf, routerSpan, routerSelf, apiSpan, apiSelf, ingestSpan, coreUS []float64
		sumClient, sumNet, sumRouter, sumAPI, sumCore, sumStore               float64
		attempts, reads, readBytes, readUS                                    float64
	)
	for i, p := range reqs {
		outer := p.httpapi
		if fleet {
			outer = p.router
		}
		if !isSearch(script[i].Kind) {
			if script[i].Kind == kindIngest {
				ingestSpan = append(ingestSpan, us(p.httpapi))
			}
			continue
		}
		n, a := us(p.client-outer), us(p.httpapi)-searchUS[i]
		netSelf = append(netSelf, n)
		apiSpan = append(apiSpan, us(p.httpapi))
		apiSelf = append(apiSelf, a)
		coreUS = append(coreUS, searchUS[i])
		if fleet {
			routerSpan = append(routerSpan, us(p.router))
			routerSelf = append(routerSelf, us(p.routerSelf))
			sumRouter += us(p.routerSelf)
		}
		sumClient += us(p.client)
		sumNet += n
		sumAPI += a
		sumCore += searchUS[i] - us(p.storeRead)
		sumStore += us(p.storeRead)
		attempts += float64(p.attempts)
		reads += float64(p.reads)
		readBytes += float64(p.readBytes)
		readUS += us(p.storeRead)
	}
	res.Shares = map[string]float64{
		"net": ratio(sumNet, sumClient), "router": ratio(sumRouter, sumClient), "httpapi": ratio(sumAPI, sumClient),
		"core": ratio(sumCore, sumClient), "store": ratio(sumStore, sumClient),
	}
	res.Coverage = ratio(sumNet+sumRouter+sumAPI+sumCore+sumStore, sumClient)

	res.set("net.self_us", summarize(netSelf))
	res.set("net.req_bytes", single(ratio(reqBytes, searchReqs)))
	res.set("net.resp_bytes", single(ratio(searchRespBytes, searchReqs)))

	if fleet {
		res.set("router.span_us", summarize(routerSpan))
		res.set("router.self_us", summarize(routerSelf))
		res.set("router.self_share", single(res.Shares["router"]))
		res.set("router.attempts_per_req", single(ratio(attempts, searchReqs)))
		res.set("router.hedges_per_kreq", single(1000*ratio(d.sum("router_hedges_total"), searchReqs)))
		res.set("router.hedge_wins_per_kreq", single(1000*ratio(d.sum("router_hedge_wins_total"), searchReqs)))
		res.set("router.retries", single(d.sum("router_retries_total")))
		res.set("router.shed", single(d.sum("router_shed_total")))
	} else {
		for _, m := range []string{"router.span_us", "router.self_us", "router.self_share", "router.attempts_per_req",
			"router.hedges_per_kreq", "router.hedge_wins_per_kreq", "router.retries", "router.shed"} {
			res.set(m, notApplicable)
		}
	}

	res.set("httpapi.span_us", summarize(apiSpan))
	res.set("httpapi.self_us", summarize(apiSelf))
	res.set("httpapi.self_share", single(res.Shares["httpapi"]))
	res.set("httpapi.resp_bytes_per_match", single(ratio(searchRespBytes, matches)))
	res.set("httpapi.ingest_span_us", summarize(ingestSpan)) // n/a without ingests
	res.set("httpapi.status_4xx", single(d.sum("http_requests_total", `code="4xx"`)))
	res.set("httpapi.status_5xx", single(d.sum("http_requests_total", `code="5xx"`)))

	res.set("core.search_us", summarize(coreUS))
	res.set("core.plan_us", summarize(planUS))
	res.set("core.refine_us", summarize(refineUS))
	res.set("core.plan.descent_nodes", summarize(nodes))
	res.set("core.plan.filter_iters", summarize(iters))
	res.set("core.plan.blocks", summarize(blocks))
	res.set("core.plan.intervals", summarize(ivals))
	res.set("core.refine.matches", single(ratio(matches, queries)))
	if after.has("engine_candidates_refined_total") {
		cand := d.sum("engine_candidates_refined_total")
		res.set("core.refine.candidates", single(ratio(cand, queries)))
		res.set("core.refine.useful_ratio", single(ratio(matches, cand)))
	} else {
		// LiveIndex exports no candidates counter: an observability gap.
		res.set("core.refine.candidates", notApplicable)
		res.set("core.refine.useful_ratio", notApplicable)
	}
	hits, misses := d.sum("plan_cache_hits_total"), d.sum("plan_cache_misses_total")
	res.set("core.plancache.hit_rate", single(ratio(hits, hits+misses)))
	res.set("core.plancache.evictions", single(d.sum("plan_cache_evictions_total")))
	// The live index observes segments-per-query on single statistical
	// and range queries only, so a batch-only script leaves it empty.
	if n := d.sum("live_query_segments_count"); n > 0 {
		res.set("core.live.segments_per_query", single(d.sum("live_query_segments_sum")/n))
	} else {
		res.set("core.live.segments_per_query", notApplicable)
	}
	if n := d.sum("live_sketch_consults_total"); n > 0 {
		res.set("core.live.sketch_skip_rate", single(d.sum("live_segments_skipped_total")/n))
	} else {
		res.set("core.live.sketch_skip_rate", notApplicable)
	}

	// store: time and calls from the harness's timing FS, bytes and the
	// cold tier's reducers from the servers' own instruments.
	stat := func(key string) float64 { return statsAfter[key] - statsBefore[key] }
	res.set("store.read_us", single(ratio(readUS, queries)))
	res.set("store.reads", single(ratio(reads, queries)))
	res.set("store.read_bytes", single(ratio(readBytes, queries)))
	cacheLookups := stat("cache.hits") + stat("cache.misses")
	res.set("store.blockcache.hit_rate", single(ratio(stat("cache.hits"), cacheLookups)))
	res.set("store.blockcache.evictions", single(stat("cache.evictions")))
	res.set("store.blockcache.loaded_bytes", single(stat("cache.loaded_bytes")))
	res.set("store.cold.skipped_blocks", single(ratio(stat("cold.skipped_blocks"), queries)))
	res.set("store.cold.quantized_rejects", single(ratio(stat("cold.quantized_rejects"), queries)))
	res.set("store.cold.fallback_reads", single(ratio(stat("cold.fallback_reads"), queries)))
	res.set("store.cold.bytes_saved", single(ratio(stat("cold.bytes_saved"), queries)))

	res.set("hilbert.encode_ns", single(encodeNs(env.in.Corpus.records[:min(10000, len(env.in.Corpus.records))])))
	m1, m2 := median(durs(rtt1)), median(durs(rtt2))
	res.set("harness.trace_overhead_share", single(ratio(m2-m1, m1)))
	return nil
}
