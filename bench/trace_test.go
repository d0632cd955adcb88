package main

import (
	"testing"
	"time"
)

func TestUnionLen(t *testing.T) {
	got := unionLen([]interval{{10, 20}, {15, 30}, {40, 50}, {42, 45}, {60, 60}})
	if got != 30 {
		t.Errorf("unionLen = %v, want 30 (overlaps counted once)", got)
	}
}

// Self time is a span's duration minus the union of its children: two
// replicas answering in parallel are not subtracted twice.
func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	us := time.Microsecond
	spans := []span{
		{Req: 0, Name: "client", Start: 0, End: 1000 * us},
		{Req: 0, Name: "router", Start: 100 * us, End: 900 * us},
		{Req: 0, Name: "httpapi", Start: 200 * us, End: 600 * us}, // group 0
		{Req: 0, Name: "httpapi", Start: 250 * us, End: 500 * us}, // group 1, inside group 0's interval
		{Req: 0, Name: "httpapi", Start: 550 * us, End: 800 * us}, // a hedge, overlapping group 0
		{Req: 0, Name: "store.read", Start: 300 * us, End: 350 * us},
		{Req: 1, Name: "client", Start: 2000 * us, End: 2100 * us},
		{Req: 1, Name: "httpapi", Start: 2010 * us, End: 2090 * us},
	}
	assignParents(spans)
	wantParent := []int{-1, 0, 1, 1, 1, 3, -1, 6}
	for i, w := range wantParent {
		if spans[i].Parent != w {
			t.Errorf("span %d (%s) parent = %d, want %d", i, spans[i].Name, spans[i].Parent, w)
		}
	}
	self := selfTimes(spans)
	want := []time.Duration{200 * us, 200 * us, 400 * us, 200 * us, 250 * us, 50 * us, 20 * us, 80 * us}
	for i, w := range want {
		if self[i] != w {
			t.Errorf("span %d (%s) self = %v, want %v", i, spans[i].Name, self[i], w)
		}
	}
}

// The store read belongs to the shortest enclosing span of an outer
// layer; a sibling replica that merely contains it in time is of the
// same layer as its real parent and so competes only on duration.
func TestParentIsNeverOfTheSameLayer(t *testing.T) {
	spans := []span{
		{Req: 0, Name: "httpapi", Start: 0, End: 100},
		{Req: 0, Name: "httpapi", Start: 10, End: 90},
	}
	assignParents(spans)
	if spans[1].Parent != -1 {
		t.Errorf("a replica adopted its sibling: parent = %d", spans[1].Parent)
	}
}

func TestRecorderIgnoresWorkOutsideRequests(t *testing.T) {
	r := newRecorder()
	r.observeFS("read", time.Now(), time.Millisecond, 10) // set-up, scrape, compaction between requests
	r.cur.Store(3)
	r.observeFS("read", time.Now(), time.Millisecond, 10)
	r.cur.Store(-1)
	spans := r.finish()
	if len(spans) != 1 || spans[0].Req != 3 || spans[0].Name != "store.read" {
		t.Errorf("spans = %+v, want the one read of request 3", spans)
	}
}
