package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// tracer keeps spans in memory for the length of a run. Starting and
// ending a span reads the clock and appends under a mutex; nothing stops
// the world. A nil tracer records nothing.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

// span is one timed call into a layer. Parent 0 is the run itself; IDs
// start at 1. Times are microseconds since the tracer started.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) since() float64 { return float64(time.Since(t.epoch)) / float64(time.Microsecond) }

// begin opens a span named "<layer>.<call>" under parent and returns its ID.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := t.since()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, StartUS: now, EndUS: -1})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := t.since()
	t.mu.Lock()
	t.spans[id-1].EndUS = now
	t.mu.Unlock()
}

// selfRow is one line of the per-layer self-time table.
type selfRow struct {
	Layer  string  `json:"layer"`
	Spans  int     `json:"spans"`
	WallMS float64 `json:"wall_ms"`
	SelfMS float64 `json:"self_ms"`
}

// selfTimes folds the spans into per-layer self time: a span's duration
// minus the part of its interval that its children cover, summed over
// every span whose name starts with "<layer>.".
func (t *tracer) selfTimes() []selfRow {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range spans {
		if s.EndUS >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	rows := map[string]*selfRow{}
	for _, s := range spans {
		if s.EndUS < 0 {
			continue
		}
		layer, _, _ := strings.Cut(s.Name, ".")
		r := rows[layer]
		if r == nil {
			r = &selfRow{Layer: layer}
			rows[layer] = r
		}
		wall := s.EndUS - s.StartUS
		r.Spans++
		r.WallMS += wall / 1e3
		r.SelfMS += (wall - covered(s, children[s.ID])) / 1e3
	}
	out := make([]selfRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

// covered returns how much of parent's interval the union of kids spans.
func covered(parent span, kids []span) float64 {
	type iv struct{ a, b float64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.StartUS, parent.StartUS), min(k.EndUS, parent.EndUS)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	total, curA, curB := 0.0, -1.0, -1.0
	for _, v := range ivs {
		if v.a > curB {
			total += curB - curA
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	return total + curB - curA
}

func printSelfTimes(w io.Writer, rows []selfRow) {
	fmt.Fprintf(w, "%-10s %8s %12s %12s\n", "layer", "spans", "wall_ms", "self_ms")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %8d %12.3f %12.3f\n", r.Layer, r.Spans, r.WallMS, r.SelfMS)
	}
}
