package main

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans live in memory for the
// whole traced pass and are summarized when the pass ends.
type span struct {
	name       string
	parent     int // index into tracer.spans, -1 for a root
	start, end time.Duration
}

// tracer records spans around calls the benchmark makes into the
// program's public entry points. A nil *tracer records nothing, so the
// replay code runs unchanged with tracing off.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span indices; the benchmark is single-threaded per tracer
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span as a child of the innermost open span.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Since(t.t0)})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].end = time.Since(t.t0)
	t.open = t.open[:len(t.open)-1]
}

// spanStat aggregates all spans of one name.
type spanStat struct {
	Name  string
	Calls int
	Total time.Duration
	Self  time.Duration // Total minus the time covered by child spans
}

// childTime returns, per span, the time its direct children cover.
// Children of one span never overlap: the benchmark is sequential.
func (t *tracer) childTime() []time.Duration {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	return child
}

// summary aggregates the recorded spans by name, in first-seen order.
func (t *tracer) summary() []spanStat {
	if t == nil {
		return nil
	}
	child := t.childTime()
	idx := map[string]int{}
	var out []spanStat
	for i, s := range t.spans {
		k, ok := idx[s.name]
		if !ok {
			k = len(out)
			idx[s.name] = k
			out = append(out, spanStat{Name: s.name})
		}
		d := s.end - s.start
		out[k].Calls++
		out[k].Total += d
		out[k].Self += d - child[i]
	}
	return out
}

// stat returns the aggregate of one span name (zero if never recorded).
func (t *tracer) stat(name string) spanStat {
	for _, s := range t.summary() {
		if s.Name == name {
			return s
		}
	}
	return spanStat{Name: name}
}

// coverage returns, for the spans named root, the smallest fraction of
// a span's duration that its children cover: the share of each study's
// wall time the layer spans account for.
func (t *tracer) coverage(root string) float64 {
	if t == nil {
		return 0
	}
	child := t.childTime()
	worst := 1.0
	for i, s := range t.spans {
		if s.name != root || s.end <= s.start {
			continue
		}
		if c := float64(child[i]) / float64(s.end-s.start); c < worst {
			worst = c
		}
	}
	return worst
}

// writeSpanTable prints the per-span table: calls, total and self time.
func writeSpanTable(w io.Writer, stats []spanStat) {
	sorted := append([]spanStat(nil), stats...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Total > sorted[j].Total })
	fmt.Fprintf(w, "%-28s %8s %12s %12s\n", "span", "calls", "total_s", "self_s")
	for _, s := range sorted {
		fmt.Fprintf(w, "%-28s %8d %12.4f %12.4f\n", s.Name, s.Calls, s.Total.Seconds(), s.Self.Seconds())
	}
}
