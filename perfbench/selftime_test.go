package main

import (
	"testing"
	"time"

	"optima/internal/obs"
)

func span(id, parent obs.SpanID, cat string, start, end time.Duration) obs.Span {
	return obs.Span{ID: id, Parent: parent, Cat: cat, Name: cat, Start: start, Dur: end - start}
}

// TestSelfTimeOverlappingChildren: children that overlap each other are
// counted once (their union), and a child reaching past its parent is
// clipped to the parent's interval. Grandchildren do not reduce the
// grandparent.
func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []obs.Span{
		span(1, 0, "batch", 0, 100),
		span(2, 1, "eval", 10, 40),
		span(3, 1, "eval", 30, 60),  // overlaps 2: union 10..60
		span(4, 1, "eval", 90, 120), // clipped to 90..100
		span(5, 2, "phase", 15, 35), // grandchild of 1
	}
	self := selfTimes(spans)
	for id, want := range map[obs.SpanID]time.Duration{1: 40, 2: 10, 3: 30, 4: 30, 5: 20} {
		if self[id] != want {
			t.Errorf("self[%d] = %v, want %v", id, self[id], want)
		}
	}
}

func TestSelfTimeNestedAndDisjoint(t *testing.T) {
	spans := []obs.Span{
		span(1, 0, "op", 0, 50),
		span(2, 1, "a", 0, 10),
		span(3, 1, "b", 20, 30),
		span(4, 1, "c", 20, 25), // inside 3
	}
	if got := selfTimes(spans)[1]; got != 30 {
		t.Errorf("self = %v, want 30", got)
	}
}

// TestAdoptInnermostUnambiguous: an orphaned layer span joins the
// innermost benchmark span enclosing it; with two enclosing benchmark
// spans that do not nest (two concurrent clients) it stays a root.
func TestAdoptInnermostUnambiguous(t *testing.T) {
	spans := []obs.Span{
		span(1, 0, catBench, 0, 100),   // op
		span(2, 1, catBench, 10, 50),   // phase of the op
		span(3, 0, "store", 20, 30),    // orphan inside 2
		span(4, 0, "store", 51, 54),    // orphan inside 1 only
		span(5, 0, catBench, 55, 200),  // a concurrent client's op
		span(6, 0, "store", 150, 160),  // inside 5 only
		span(7, 0, "batch", 200, 300),  // enclosed by nothing
		span(8, 99, "eval", 22, 28),    // parent not recorded: adopted too
		span(9, 3, "lookup", 21, 29),   // has its parent: untouched
		span(10, 0, "store", 60, 80),   // inside 1 and 5, which overlap
		span(11, 0, "store", 120, 130), // inside 5 only
	}
	got := map[obs.SpanID]obs.SpanID{}
	for _, s := range adopt(spans) {
		got[s.ID] = s.Parent
	}
	want := map[obs.SpanID]obs.SpanID{1: 0, 2: 1, 3: 2, 4: 1, 5: 0, 6: 5, 7: 0, 8: 2, 9: 3, 10: 0, 11: 5}
	for id, p := range want {
		if got[id] != p {
			t.Errorf("span %d parent = %d, want %d", id, got[id], p)
		}
	}
	if spans[2].Parent != 0 {
		t.Error("adopt modified its input")
	}
}

func TestSelfTimeTableGroupsByCategoryAndName(t *testing.T) {
	spans := []obs.Span{
		span(1, 0, "op", 0, 100),
		span(2, 1, "eval", 0, 30),
		span(3, 1, "eval", 40, 60),
	}
	rows := selfTimeTable(spans, selfTimes(spans))
	if len(rows) != 2 {
		t.Fatalf("rows = %+v, want 2", rows)
	}
	if rows[0].Key != "eval/eval" || rows[0].Count != 2 || rows[0].Total != 50 || rows[0].Self != 50 {
		t.Errorf("first row %+v, want eval/eval ×2, 50 total and self", rows[0])
	}
	if rows[1].Key != "op/op" || rows[1].Self != 50 {
		t.Errorf("second row %+v, want op/op with 50 self", rows[1])
	}
}
