package main

import (
	"cmp"
	"slices"
	"strings"
	"time"
)

// span is one call the benchmark made into a layer. Spans are recorded by
// the benchmark around the layer's exported API — nothing inside the
// program is instrumented — kept in memory, and written out when the
// traced pass ends.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1 for a root span
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
}

// tracer records spans for one workload. A nil *tracer is the untraced
// state: begin and end are a nil check, so the timed repetitions of the
// end-to-end pass run the same driver code with no recording cost.
type tracer struct {
	workload string
	rep      int
	origin   time.Time
	spans    []span
	open     []int // stack of open span IDs
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, origin: time.Now()}
}

// begin opens a span as a child of the innermost open span and returns
// its ID for end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Workload: t.workload, Rep: t.rep,
		StartNS: int64(time.Since(t.origin)),
	})
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].EndNS = int64(time.Since(t.origin))
	t.open = t.open[:len(t.open)-1]
}

// spanTotal is the per-name roll-up of a trace.
type spanTotal struct {
	Name    string `json:"name"`
	Count   int    `json:"count"`
	TotalNS int64  `json:"total_ns"`
	// SelfNS is the span's duration minus the part its child spans cover.
	SelfNS int64 `json:"self_ns"`
}

// selfTimes rolls spans up by name, largest self time first. Children of
// one parent never overlap (the driver is single-threaded between
// begin/end pairs), so the covered part is the plain sum of the children.
func selfTimes(spans []span) []spanTotal {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	byName := map[string]*spanTotal{}
	for _, s := range spans {
		t := byName[s.Name]
		if t == nil {
			t = &spanTotal{Name: s.Name}
			byName[s.Name] = t
		}
		d := s.EndNS - s.StartNS
		t.Count++
		t.TotalNS += d
		t.SelfNS += d - child[s.ID]
	}
	out := make([]spanTotal, 0, len(byName))
	for _, t := range byName {
		out = append(out, *t)
	}
	slices.SortFunc(out, func(a, b spanTotal) int {
		return cmp.Or(cmp.Compare(b.SelfNS, a.SelfNS), strings.Compare(a.Name, b.Name))
	})
	return out
}

// durationsUS returns the durations, in microseconds, of every span with
// the given name.
func durationsUS(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.EndNS-s.StartNS)/1e3)
		}
	}
	return out
}

// rebase shifts span IDs so a second tracer's spans can follow a first's
// in one file.
func rebase(spans []span, by int) []span {
	out := slices.Clone(spans)
	for i := range out {
		out[i].ID += by
		if out[i].Parent >= 0 {
			out[i].Parent += by
		}
	}
	return out
}

// traceFile is what the traced pass writes per workload.
type traceFile struct {
	Schema   string      `json:"schema"`
	SelfTime []spanTotal `json:"self_time"`
	Spans    []span      `json:"spans"`
}

func writeTrace(path string, spans []span) error {
	return writeJSON(path, traceFile{Schema: schema, SelfTime: selfTimes(spans), Spans: spans})
}
