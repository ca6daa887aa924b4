package main

import (
	"strings"
	"testing"
	"time"
)

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "a", StartNS: 10, EndNS: 40},
		{ID: 3, Parent: 1, Name: "b", StartNS: 30, EndNS: 60},  // overlaps a: 30..40 counts once
		{ID: 4, Parent: 1, Name: "c", StartNS: 90, EndNS: 120}, // sticks out: clipped to 90..100
		{ID: 5, Parent: 2, Name: "grandchild", StartNS: 12, EndNS: 20},
		{ID: 6, Name: "leaf", StartNS: 200, EndNS: 250},
	}
	self := selfTimes(spans)
	want := map[int64]int64{
		1: 100 - (50 + 10), // children cover 10..60 and 90..100
		2: 30 - 8,          // only its own child counts
		3: 30,
		4: 30,
		5: 8,
		6: 50,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	st := summarize(spans, 0.5)
	if got := st.self["parent"][0]; got != 20 {
		t.Errorf("summarize scales self times: got %g, want 20", got)
	}
	if got := st.dur["leaf"][0]; got != 25 {
		t.Errorf("summarize scales durations: got %g, want 25", got)
	}
}

func TestValidateSpans(t *testing.T) {
	good := []span{
		{ID: 1, Name: "root", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "child", StartNS: 0, EndNS: 100},
	}
	if err := validateSpans(good); err != nil {
		t.Errorf("a child filling its parent is nested: %v", err)
	}
	bad := map[string][]span{
		"missing parent": {{ID: 1, Parent: 9, Name: "orphan", StartNS: 0, EndNS: 1}},
		"not inside":     {good[0], {ID: 2, Parent: 1, Name: "late", StartNS: 50, EndNS: 101}},
		"used twice":     {good[0], good[0]},
		"ends before":    {{ID: 1, Name: "backwards", StartNS: 5, EndNS: 4}},
	}
	for want, spans := range bad {
		if err := validateSpans(spans); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("validateSpans: got %v, want an error saying %q", err, want)
		}
	}
}

func TestAttachBatches(t *testing.T) {
	r := &recorder{t0: time.Now()}
	r.nextID.Store(10)
	r.spans = []span{
		{ID: 1, Op: 7, Name: "serve.http", StartNS: 0, EndNS: 100},
		{ID: 2, Op: 8, Name: "serve.http", StartNS: 50, EndNS: 200},
		{ID: 3, Op: 9, Name: "client.request", StartNS: 0, EndNS: 300},
	}
	r.batches = []batchSample{
		{arrivalNS: 90, execNS: 30, waitNS: 20},    // queue 40..60, exec 60..90: only span 1 began by 40
		{arrivalNS: 210, execNS: 50, waitNS: 100},  // queue 60..160, exec 160..210: span 2, clipped to 200
		{arrivalNS: 400, execNS: 10, waitNS: 10},   // nothing was open at 390
		{arrivalNS: 95, execNS: 20, waitNS: 70},    // queue 5..75: span 1 is claimed, nothing else began by 5
		{arrivalNS: 1000, execNS: 1, waitNS: 2000}, // would begin before every span
	}
	if got := r.attachBatches("serve.http"); got != 3 {
		t.Errorf("unmatched batches = %d, want 3", got)
	}
	if err := validateSpans(r.spans); err != nil {
		t.Fatalf("attached spans do not nest: %v", err)
	}
	want := []span{
		{Parent: 1, Op: 7, Name: "serve.queue", StartNS: 40, EndNS: 60},
		{Parent: 1, Op: 7, Name: "serve.exec", StartNS: 60, EndNS: 90},
		{Parent: 2, Op: 8, Name: "serve.queue", StartNS: 60, EndNS: 160},
		{Parent: 2, Op: 8, Name: "serve.exec", StartNS: 160, EndNS: 200},
	}
	got := r.spans[3:]
	if len(got) != len(want) {
		t.Fatalf("attached %d spans, want %d: %+v", len(got), len(want), got)
	}
	for i, w := range want {
		g := got[i]
		g.ID = 0
		if g != w {
			t.Errorf("attached span %d = %+v, want %+v", i, g, w)
		}
	}
}
