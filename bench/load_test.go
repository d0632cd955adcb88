package main

import (
	"testing"
	"time"
)

// fakeClock is an injected time source: nothing passes unless the test
// (or a sleep) moves it.
type fakeClock struct{ now time.Duration }

func (c *fakeClock) Now() time.Duration { return c.now }
func (c *fakeClock) SleepUntil(t time.Duration) {
	if t > c.now {
		c.now = t
	}
}

// An open-loop request is timed from the instant it was due, not from
// when a sender got round to it, and the scheduler reports how late it
// ran.
func TestRunPacedTimesFromDueInstant(t *testing.T) {
	ms := time.Millisecond
	clk := &fakeClock{}
	// One sender, a request due every 10 ms for 50 ms. Request 1 stalls
	// for 25 ms, the others take 2 ms.
	service := []time.Duration{2 * ms, 25 * ms, 2 * ms, 2 * ms, 2 * ms}
	res := runPaced(clk, 1, 10*ms, 50*ms, func(_, k int) sample {
		clk.now += service[k]
		return sample{OK: true}
	})
	if res.Due != 5 || len(res.Samples) != 5 {
		t.Fatalf("due %d sent %d, want 5 and 5", res.Due, len(res.Samples))
	}
	want := []struct{ due, start, end time.Duration }{
		{0, 0, 2 * ms},
		{10 * ms, 10 * ms, 35 * ms},
		{20 * ms, 35 * ms, 37 * ms}, // waited 15 ms behind the stall
		{30 * ms, 37 * ms, 39 * ms},
		{40 * ms, 40 * ms, 42 * ms}, // caught up
	}
	for i, w := range want {
		s := res.Samples[i]
		if s.Due != w.due || s.Start != w.start || s.End != w.end {
			t.Errorf("request %d: due %v start %v end %v, want %v %v %v", i, s.Due, s.Start, s.End, w.due, w.start, w.end)
		}
	}
	if got := res.Samples[2].latency(); got != 17*ms {
		t.Errorf("latency behind the stall = %v, want 17ms (from due time, not from send)", got)
	}
	if late := res.Samples[2].Start - res.Samples[2].Due; late != 15*ms {
		t.Errorf("lateness = %v, want 15ms", late)
	}
	if res.sentShare() != 1 {
		t.Errorf("sentShare = %v, want 1", res.sentShare())
	}
}

// A server slower than the schedule leaves requests unsent at the end of
// the phase: the backlog is visible as a sent share below 1.
func TestRunPacedReportsGrowingBacklog(t *testing.T) {
	ms := time.Millisecond
	clk := &fakeClock{}
	res := runPaced(clk, 1, 10*ms, 100*ms, func(_, _ int) sample {
		clk.now += 30 * ms
		return sample{OK: true}
	})
	if res.Due != 10 {
		t.Fatalf("due = %d, want 10", res.Due)
	}
	if len(res.Samples) != 4 { // sent at 0, 30, 60, 90
		t.Fatalf("sent = %d, want 4", len(res.Samples))
	}
	if share := res.sentShare(); share >= pacedMinSent {
		t.Errorf("sentShare = %v, want below %v", share, pacedMinSent)
	}
	if last := res.Samples[3]; last.Due != 30*ms || last.latency() != 90*ms {
		t.Errorf("last sent: due %v latency %v, want 30ms and 90ms", last.Due, last.latency())
	}
}

func TestWindowP95CutsByDueTime(t *testing.T) {
	ms := time.Millisecond
	var samples []sample
	for k := 0; k < 40; k++ { // 20 per 100 ms window
		lat := 2 * ms
		if k == 7 {
			lat = 50 * ms
		}
		samples = append(samples, sample{Due: time.Duration(k) * 5 * ms, End: time.Duration(k)*5*ms + lat, OK: true})
	}
	got := windowP95(samples, 0, 200*ms, 2, sample.latency)
	if len(got) != 2 || got[0] != 2 || got[1] != 2 {
		t.Errorf("p95 = %v, want [2 2]: one slow request in 20 is beyond the 95th percentile", got)
	}
	samples[8].End = samples[8].Due + 40*ms
	if got := windowP95(samples, 0, 200*ms, 2, sample.latency); got[0] != 40 {
		t.Errorf("p95 with two slow requests = %v, want 40", got[0])
	}
}
