package main

import (
	"encoding/json"
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	// root [0,100) with children a [10,40) and b [30,60) overlapping, and
	// c [90,120) running past the root's end; a has a child d [15,25).
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		{ID: 5, Parent: 2, Name: "d", Start: 15, End: 25},
		{ID: 6, Parent: 1, Name: "open", Start: 70, End: -1},
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{
		"root": 100 - 50 - 10, // children cover [10,60) and [90,100)
		"a":    30 - 10,
		"b":    30,
		"c":    30,
		"d":    10,
	}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self[%s] = %d, want %d", name, self[name], w)
		}
	}
	if _, ok := self["open"]; ok {
		t.Error("an unfinished span has a self time")
	}
	if total := totalTimes(spans); total["root"] != 100 || total["a"] != 30 {
		t.Errorf("total times %v", total)
	}
}

func TestTracerMerge(t *testing.T) {
	tr := newTracer()
	root := tr.start(0, "job", "r1")
	tr.finish(root)
	tr.merge([]span{{ID: 1, Name: "child", Start: 0, End: 5}, {ID: 2, Parent: 1, Name: "leaf", Start: 1, End: 2}}, 10, root)
	got := tr.snapshot()
	if len(got) != 3 || got[1].ID != 2 || got[1].Parent != root || got[2].Parent != 2 || got[2].Start != 11 {
		t.Fatalf("merged spans %+v", got)
	}
	var nilTracer *tracer
	if id := nilTracer.start(0, "x", "y"); id != 0 {
		t.Fatal("a nil tracer recorded a span")
	}
	nilTracer.finish(0)
}

func TestChromeTraceLoads(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "check.determinism", Req: "amavis", Start: 0, End: 2_000_000},
		{ID: 2, Parent: 1, Name: "core.Load", Req: "amavis", Start: 100_000, End: 900_000},
		{ID: 3, Name: "unfinished", Req: "x", Start: 5, End: -1},
	}
	data, err := chromeTrace(spans, map[string]any{"seed": 1})
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  uint32         `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string         `json:"displayTimeUnit"`
		OtherData       map[string]any `json:"otherData"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("%d events, want 2 (unfinished spans dropped)", len(doc.TraceEvents))
	}
	ev := doc.TraceEvents[1]
	if ev.Ph != "X" || ev.Ts != 100 || ev.Dur != 800 || ev.Name != "core.Load" {
		t.Errorf("event %+v, want a complete event at 100us lasting 800us", ev)
	}
	if ev.Tid != doc.TraceEvents[0].Tid {
		t.Error("spans of one request are on different lanes")
	}
	if doc.OtherData["seed"] != float64(1) {
		t.Errorf("metadata %v", doc.OtherData)
	}
}
