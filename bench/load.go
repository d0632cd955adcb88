package main

// Load generation: real net/http clients over loopback TCP, one
// connection each, in a closed loop (a monitor's detector submits a
// key-frame and waits for the answer) or on an open-loop schedule
// (every request timed from the instant it was due, so the wait a stall
// imposes on later requests is counted).

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// startServer serves h on a fresh loopback listener with the timeouts
// the commands configure. stop shuts it down and waits for it.
func startServer(h http.Handler) (url string, stop func() error, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h, ReadTimeout: 10 * time.Second, WriteTimeout: 30 * time.Second, IdleTimeout: 2 * time.Minute}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	stop = func() error {
		err := hs.Close()
		<-done
		return err
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// requestTimeout bounds one client request; a request that exceeds it
// counts as failed.
const requestTimeout = 10 * time.Second

// client is one HTTP connection to a topology.
type client struct {
	hc   *http.Client
	base string
}

// failures keeps the first few request failures of the process, so a
// run that fails says why.
var failures struct {
	sync.Mutex
	msgs []string
}

func noteFailure(err error) {
	failures.Lock()
	if len(failures.msgs) < 5 {
		failures.msgs = append(failures.msgs, err.Error())
	}
	failures.Unlock()
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: requestTimeout}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends r and reads the whole answer. ok is true for a 2xx answer
// read to the end. The body is returned only when keep is set.
func (c *client) do(r *request, keep bool) (ok bool, body []byte, n int64, err error) {
	req, err := http.NewRequest(r.Method, c.base+r.Path, bytes.NewReader(r.Body))
	if err != nil {
		return false, nil, 0, err
	}
	if r.Body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		noteFailure(err)
		return false, nil, 0, err
	}
	defer resp.Body.Close()
	if keep || resp.StatusCode/100 != 2 {
		body, err = io.ReadAll(resp.Body)
		n = int64(len(body))
	} else {
		n, err = io.Copy(io.Discard, resp.Body)
	}
	if err != nil {
		noteFailure(err)
		return false, nil, n, err
	}
	if resp.StatusCode/100 != 2 {
		err = fmt.Errorf("%s %s: status %d: %.200s", r.Method, r.Path, resp.StatusCode, body)
		noteFailure(err)
		return false, body, n, err
	}
	return true, body, n, nil
}

// get fetches a small text resource (a /metrics exposition).
func (c *client) get(url string) (string, error) {
	resp, err := c.hc.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return string(b), nil
}

// sample is one request as the client saw it. Times are offsets from
// the phase start; Due equals Start in a closed loop.
type sample struct {
	Due, Start, End time.Duration
	Kind            reqKind
	Weight          int // fingerprint queries answered
	OK              bool
}

func (s sample) latency() time.Duration { return s.End - s.Due }

// cursor walks one client's request cycle across phases, so a phase
// continues where the previous one stopped instead of replaying it.
type cursor struct {
	cycle []request
	pos   int
}

func (c *cursor) next() *request {
	r := &c.cycle[c.pos%len(c.cycle)]
	c.pos++
	return r
}

// clock is the time source of the open-loop scheduler; tests inject a
// fake one.
type clock interface {
	// Now is the time since the phase started.
	Now() time.Duration
	// SleepUntil returns once Now() >= t.
	SleepUntil(t time.Duration)
}

type wallClock struct{ t0 time.Time }

func (c wallClock) Now() time.Duration { return time.Since(c.t0) }
func (c wallClock) SleepUntil(t time.Duration) {
	if d := t - c.Now(); d > 0 {
		time.Sleep(d)
	}
}

// closedLoop runs one goroutine per client for dur: each sends its
// next request as soon as the previous answer is read.
func closedLoop(clk clock, clients []*client, cursors []*cursor, dur time.Duration) []sample {
	per := make([][]sample, len(clients))
	var wg sync.WaitGroup
	for i := range clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				start := clk.Now()
				if start >= dur {
					return
				}
				r := cursors[i].next()
				ok, _, _, _ := clients[i].do(r, false)
				per[i] = append(per[i], sample{Due: start, Start: start, End: clk.Now(), Kind: r.Kind, Weight: r.weight(), OK: ok})
			}
		}(i)
	}
	wg.Wait()
	var all []sample
	for _, s := range per {
		all = append(all, s...)
	}
	return all
}

// pacedResult is what an open-loop phase observed.
type pacedResult struct {
	Samples []sample
	// Due is the number of requests the schedule made due within the
	// phase; len(Samples) of them were sent before it ended.
	Due int
}

// sentShare is the share of due requests sent by the end of the phase;
// below pacedMinSent the backlog was growing and the phase fails.
func (p pacedResult) sentShare() float64 {
	if p.Due == 0 {
		return 1
	}
	return float64(len(p.Samples)) / float64(p.Due)
}

const pacedMinSent = 0.99

// runPaced drives an open-loop schedule: request k is due at
// k*interval, for every k whose due time is before dur. workers
// senders share the schedule; each takes the next due request, waits
// for its due time if it is early, and sends it. A request is timed
// from its due instant, so time spent waiting for a free sender is part
// of its latency. Requests still unsent at dur are not sent. send may
// set the sample's End itself when it does more after the answer.
func runPaced(clk clock, workers int, interval, dur time.Duration, send func(worker, k int) sample) pacedResult {
	due := int((dur + interval - 1) / interval)
	var next atomic.Int64
	per := make([][]sample, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				at := time.Duration(k) * interval
				if k >= due {
					return
				}
				clk.SleepUntil(at)
				start := clk.Now()
				if start >= dur {
					return
				}
				s := send(w, k)
				s.Due, s.Start = at, start
				if s.End == 0 {
					s.End = clk.Now()
				}
				per[w] = append(per[w], s)
			}
		}(w)
	}
	wg.Wait()
	res := pacedResult{Due: due}
	for _, s := range per {
		res.Samples = append(res.Samples, s...)
	}
	return res
}

// pacedLoop is runPaced over HTTP clients walking their cycles.
func pacedLoop(clk clock, clients []*client, cursors []*cursor, rps float64, dur time.Duration) pacedResult {
	interval := time.Duration(float64(time.Second) / rps)
	return runPaced(clk, len(clients), interval, dur, func(w, _ int) sample {
		r := cursors[w].next()
		ok, _, _, _ := clients[w].do(r, false)
		return sample{Kind: r.Kind, Weight: r.weight(), OK: ok}
	})
}

// writeAck records what the server acknowledged of one write slot.
type writeAck struct{ Ingested, Deleted bool }

// writerLoop is the ingest workload's single writer connection: one
// write slot per tick of the ingest rate, open loop. A slot's delete
// rides on the same connection right after its ingest, outside the
// ingest's timing. acks says which writes were acknowledged, which is
// what the durability check replays; deletes are the delete requests as
// samples, for the failure count.
func writerLoop(clk clock, c *client, slots []writeSlot, perSec float64, dur time.Duration) (res pacedResult, acks []writeAck, deletes []sample) {
	interval := time.Duration(float64(time.Second) / perSec)
	acks = make([]writeAck, len(slots))
	res = runPaced(clk, 1, interval, dur, func(_, k int) sample {
		if k >= len(slots) {
			return sample{Kind: kindIngest} // schedule outran the pre-generated slots: a failure
		}
		ok, _, _, _ := c.do(&slots[k].Ingest, false)
		acks[k].Ingested = ok
		s := sample{Kind: kindIngest, OK: ok, End: clk.Now()}
		if d := slots[k].Delete; d != nil {
			dok, _, _, _ := c.do(d, false)
			acks[k].Deleted = dok
			deletes = append(deletes, sample{Kind: kindDelete, OK: dok})
		}
		return s
	})
	return res, acks, deletes
}

// windowStats are the per-window values of a closed phase.
type windowStats struct {
	QPS, P50, P95 []float64
}

// cutWindows splits the phase into n consecutive windows of dur/n and
// returns each window's throughput (fingerprint queries answered with
// 2xx per second) and the latency percentiles of the successful
// requests of the given kind that completed in it. A request's queries
// count towards every window its service interval overlaps, in
// proportion to the overlap: with whole batches booked at completion a
// window's throughput would move in steps of 32/window.
func cutWindows(samples []sample, dur time.Duration, n int, kind reqKind) windowStats {
	w := dur / time.Duration(n)
	lat := make([][]float64, n)
	answered := make([]float64, n)
	for _, s := range samples {
		if !s.OK {
			continue
		}
		for i := int(s.Start / w); i < n && time.Duration(i)*w < s.End; i++ {
			lo, hi := time.Duration(i)*w, time.Duration(i+1)*w
			if s.Start > lo {
				lo = s.Start
			}
			if s.End < hi {
				hi = s.End
			}
			if s.End > s.Start {
				answered[i] += float64(s.Weight) * float64(hi-lo) / float64(s.End-s.Start)
			}
		}
		if i := int(s.End / w); i < n && s.Kind == kind {
			lat[i] = append(lat[i], ms(s.latency()))
		}
	}
	var ws windowStats
	for i := 0; i < n; i++ {
		ws.QPS = append(ws.QPS, answered[i]/w.Seconds())
		if len(lat[i]) > 0 {
			ws.P50 = append(ws.P50, percentile(lat[i], 0.50))
			ws.P95 = append(ws.P95, percentile(lat[i], 0.95))
		}
	}
	return ws
}

// windowP95 is the per-window p95 (ms, from due time) of the successful
// samples, windows cut by due time.
func windowP95(samples []sample, from, dur time.Duration, n int, value func(sample) time.Duration) []float64 {
	w := dur / time.Duration(n)
	vals := make([][]float64, n)
	for _, s := range samples {
		i := int((s.Due - from) / w)
		if s.Due < from || i >= n || !s.OK {
			continue
		}
		vals[i] = append(vals[i], ms(value(s)))
	}
	var out []float64
	for _, v := range vals {
		if len(v) > 0 {
			out = append(out, percentile(v, 0.95))
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// tally counts attempts and failures of a set of samples.
func tally(samples []sample) (attempted, failed int) {
	for _, s := range samples {
		attempted++
		if !s.OK {
			failed++
		}
	}
	return
}
