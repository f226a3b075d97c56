package main

import (
	"testing"
	"time"
)

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "op", ID: 1, Op: 1, Start: 0, End: 100},
		// Two overlapping children cover 10..50 once.
		{Name: "a", ID: 2, Parent: 1, Op: 1, Start: 10, End: 30},
		{Name: "b", ID: 3, Parent: 1, Op: 1, Start: 20, End: 50},
		// A child running past its parent counts only inside it.
		{Name: "a", ID: 4, Parent: 1, Op: 1, Start: 90, End: 120},
		// A grandchild is covered by its own parent, not by the op.
		{Name: "c", ID: 5, Parent: 3, Op: 1, Start: 25, End: 35},
		{Name: "op", ID: 6, Op: 2, Start: 200, End: 260},
		{Name: "a", ID: 7, Parent: 6, Op: 2, Start: 200, End: 260},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 50, 2: 20, 3: 20, 4: 30, 5: 10, 6: 0, 7: 60}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
	got := perOpSelfMS(spans, self, "a")
	if len(got) != 2 {
		t.Fatalf("perOpSelfMS gave %d ops, want 2", len(got))
	}
	sum := got[0] + got[1]
	if want := ms(20 + 30 + 60); sum != want {
		t.Errorf("self time of a over both ops = %v ms, want %v ms", sum, want)
	}
}

func TestRatioPerOp(t *testing.T) {
	spans := []span{
		{Name: "n", ID: 1, Op: 1, Start: 0, End: 30},
		{Name: "d", ID: 2, Op: 1, Start: 30, End: 90},
		{Name: "n", ID: 3, Op: 2, Start: 0, End: 10}, // no denominator
		{Name: "d", ID: 4, Op: 3, Start: 0, End: 10}, // no numerator
	}
	got := ratioPerOp(spans, "n", "d")
	if len(got) != 1 || got[0] != 0.5 {
		t.Errorf("ratioPerOp = %v, want [0.5]", got)
	}
}

func TestTracerOffRecordsNothing(t *testing.T) {
	var tr *tracer
	ran := false
	tr.do("x", 0, 1, func() { ran = true })
	tr.note("n", 1, 3)
	if !ran || len(tr.snapshot()) != 0 {
		t.Errorf("nil tracer: ran=%v spans=%d", ran, len(tr.snapshot()))
	}
	on := newTracer()
	id := on.start("open", 0, 1)
	on.do("child", id, 1, func() {})
	if n := len(on.snapshot()); n != 1 {
		t.Errorf("an open span was reported: %d closed spans, want 1", n)
	}
	on.end(id)
	s := on.snapshot()
	if len(s) != 2 || s[1].Parent != s[0].ID {
		t.Errorf("spans %+v: want the child under the open span", s)
	}
}
