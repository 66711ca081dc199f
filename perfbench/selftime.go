package main

import (
	"fmt"
	"io"
	"sort"
	"time"

	"optima/internal/obs"
)

// catBench is the category of the benchmark's own spans, recorded around
// its calls into each layer's public functions.
const catBench = "bench"

// adopt re-parents orphaned layer spans under the benchmark's spans. Some
// layers start root spans (a store open, an engine batch submitted without
// a parent); such a span belongs to the innermost benchmark span whose
// interval encloses it. When two enclosing benchmark spans do not nest —
// concurrent clients — the owner is ambiguous and the span stays a root.
// The input is not modified.
func adopt(spans []obs.Span) []obs.Span {
	present := make(map[obs.SpanID]bool, len(spans))
	var bench []obs.Span
	for _, s := range spans {
		present[s.ID] = true
		if s.Cat == catBench {
			bench = append(bench, s)
		}
	}
	out := append([]obs.Span(nil), spans...)
	for i, s := range out {
		if s.Cat == catBench || (s.Parent != 0 && present[s.Parent]) {
			continue
		}
		if owner, ok := innermostEnclosing(bench, s); ok {
			out[i].Parent = owner
		}
	}
	return out
}

// innermostEnclosing finds the smallest benchmark span enclosing s, and
// reports whether it is unambiguous: every other enclosing span must
// enclose it in turn.
func innermostEnclosing(bench []obs.Span, s obs.Span) (obs.SpanID, bool) {
	var encl []obs.Span
	for _, b := range bench {
		if b.ID != s.ID && encloses(b, s) {
			encl = append(encl, b)
		}
	}
	if len(encl) == 0 {
		return 0, false
	}
	best := encl[0]
	for _, b := range encl[1:] {
		if b.Dur < best.Dur {
			best = b
		}
	}
	for _, b := range encl {
		if !encloses(b, best) {
			return 0, false
		}
	}
	return best.ID, true
}

func encloses(outer, inner obs.Span) bool {
	return outer.Start <= inner.Start && inner.End() <= outer.End()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Children may overlap each other
// (parallel evaluations under one batch), so the covered part is the
// length of the union of their intervals, clipped to the parent's.
func selfTimes(spans []obs.Span) map[obs.SpanID]time.Duration {
	type interval struct{ start, end time.Duration }
	byID := make(map[obs.SpanID]obs.Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	kids := make(map[obs.SpanID][]interval)
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if s.Parent == 0 || !ok {
			continue
		}
		lo, hi := max(s.Start, p.Start), min(s.End(), p.End())
		if hi > lo {
			kids[p.ID] = append(kids[p.ID], interval{lo, hi})
		}
	}
	self := make(map[obs.SpanID]time.Duration, len(spans))
	for _, s := range spans {
		iv := kids[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i].start < iv[j].start })
		var covered time.Duration
		var cur interval
		for i, x := range iv {
			switch {
			case i == 0:
				cur = x
			case x.start <= cur.end:
				cur.end = max(cur.end, x.end)
			default:
				covered += cur.end - cur.start
				cur = x
			}
		}
		if len(iv) > 0 {
			covered += cur.end - cur.start
		}
		self[s.ID] = s.Dur - covered
	}
	return self
}

// layerRow is one line of the self-time table: every span of one
// category and name.
type layerRow struct {
	Key         string
	Count       int
	Total, Self time.Duration
}

// selfTimeTable groups spans by category/name and sums their total and
// self times, largest self time first.
func selfTimeTable(spans []obs.Span, self map[obs.SpanID]time.Duration) []layerRow {
	rows := map[string]*layerRow{}
	for _, s := range spans {
		key := s.Cat + "/" + s.Name
		r := rows[key]
		if r == nil {
			r = &layerRow{Key: key}
			rows[key] = r
		}
		r.Count++
		r.Total += s.Dur
		r.Self += self[s.ID]
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// writeSelfTimeTable prints the table with per-op figures.
func writeSelfTimeTable(w io.Writer, rows []layerRow, ops int) {
	if ops < 1 {
		ops = 1
	}
	fmt.Fprintf(w, "%-34s %8s %12s %12s\n", "span (cat/name)", "count/op", "total s/op", "self s/op")
	for _, r := range rows {
		fmt.Fprintf(w, "%-34s %8.1f %12.6f %12.6f\n", r.Key,
			float64(r.Count)/float64(ops), r.Total.Seconds()/float64(ops), r.Self.Seconds()/float64(ops))
	}
}
