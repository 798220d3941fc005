package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// tracer records spans around the benchmark's own calls into the layers'
// public functions. Spans stay in memory and are written once, at exit, as
// Chrome trace-event JSON. A nil *tracer records nothing, so untraced reps
// pay one nil check per call.
type tracer struct {
	origin time.Time
	spans  []span
	rep    int // id of the traced rep spans belong to
	parent int // index of the open rep span, -1 outside one
}

// span is one timed call: name, start, end, the span that caused it (-1 for
// a root) and the rep it belongs to.
type span struct {
	name, arg  string
	start, end time.Duration
	parent     int
	rep        int
}

// hostRefSpan names the reference kernel's runs between a rep's
// operations; shares leave them out.
const hostRefSpan = "bench.hostref"

func newTracer() *tracer { return &tracer{origin: time.Now(), parent: -1} }

// beginRep opens the root span of one traced rep.
func (t *tracer) beginRep() {
	if t == nil {
		return
	}
	t.rep++
	t.spans = append(t.spans, span{name: "rep", start: time.Since(t.origin), parent: -1, rep: t.rep})
	t.parent = len(t.spans) - 1
}

// endRep closes the rep span opened by beginRep.
func (t *tracer) endRep() {
	if t == nil || t.parent < 0 {
		return
	}
	t.spans[t.parent].end = time.Since(t.origin)
	t.parent = -1
}

// call runs fn inside a span named name (arg is free-form detail, such as a
// figure id) under the open rep span.
func (t *tracer) call(name, arg string, fn func()) {
	if t == nil {
		fn()
		return
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{name: name, arg: arg, start: time.Since(t.origin), parent: t.parent, rep: t.rep})
	defer func() { t.spans[i].end = time.Since(t.origin) }()
	fn()
}

// shares returns, for each span name, its summed duration as a percentage
// of the summed duration of the rep spans less the reference kernel's runs.
func (t *tracer) shares() map[string]float64 {
	sum := map[string]time.Duration{}
	for _, s := range t.spans {
		sum[s.name] += s.end - s.start
	}
	out := map[string]float64{}
	total := sum["rep"] - sum[hostRefSpan]
	if total <= 0 {
		return out
	}
	for name, d := range sum {
		out[name] = 100 * float64(d) / float64(total)
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans to dir/<workload>.trace.json.
func (t *tracer) writeChrome(dir, workload string) error {
	events := make([]chromeEvent, 0, len(t.spans))
	for i, s := range t.spans {
		parent := ""
		if s.parent >= 0 {
			parent = t.spans[s.parent].name
		}
		events = append(events, chromeEvent{
			Name: s.name, Ph: "X",
			Ts:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.rep,
			Args: map[string]any{"id": i, "parent": s.parent, "parent_name": parent, "run": s.rep, "arg": s.arg},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".trace.json"), data, 0o644)
}
