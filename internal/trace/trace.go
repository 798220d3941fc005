// Package trace is the simulator's DFTracer: it records per-rank "read"
// and "compute" spans during a DLIO run, computes the paper's I/O-time
// decomposition — non-overlapping I/O, overlapping I/O, pure compute
// (Section VI-A) — online at span boundaries, and derives the two
// throughput views: the application throughput (the app only perceives I/O
// that stalls its compute) and the system throughput (the system is busy
// for all I/O time). A recorder can also keep the span log, which exports
// to Chrome trace-event JSON for inspection.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"storagesim/internal/sim"
)

// Kind labels a span.
type Kind int

const (
	// Read spans cover time a rank's I/O pipeline spends fetching samples.
	Read Kind = iota
	// Compute spans cover model training steps.
	Compute
	// Write spans cover checkpoint and output writes; they count as I/O in
	// the overlap analysis alongside reads.
	Write
)

// String returns "read", "compute" or "write".
func (k Kind) String() string {
	switch k {
	case Read:
		return "read"
	case Compute:
		return "compute"
	default:
		return "write"
	}
}

// Span is one recorded interval.
type Span struct {
	Rank  int
	Kind  Kind
	Start sim.Time
	End   sim.Time
	Bytes int64 // payload for read spans; 0 for compute
}

// Duration returns the span length.
func (s Span) Duration() sim.Duration { return s.End.Sub(s.Start) }

// Recorder computes a run's I/O time decomposition online, and keeps the
// span log when it was made by NewRecorder. A rank opens each span with
// Begin at its start and closes it with Record at its end; at every such
// boundary the rank's accumulator credits the time since the previous one
// to I/O, compute or both, by which kinds had spans open. Boundaries must
// arrive in time order per rank, which simulated processes guarantee. The
// zero Recorder keeps no log: the decomposition costs a few words per rank
// however long the run. A Recorder is used from simulated processes only,
// which the kernel serializes, so no locking is needed.
type Recorder struct {
	ranks map[int]*rankClock
	log   bool
	spans []Span
}

// NewRecorder returns an empty recorder that also keeps the span log, for
// callers that export or replay the spans.
func NewRecorder() *Recorder { return &Recorder{log: true} }

// rankClock is one rank's running decomposition: how many I/O and compute
// spans are open, and the time so far with I/O in flight, with compute
// running, and with both.
type rankClock struct {
	last                 sim.Time
	io, compute          int
	ioT, computeT, bothT sim.Duration
	bytes                int64
	seen                 bool // closed at least one non-empty span
}

// advance credits the time since the rank's last boundary.
func (c *rankClock) advance(t sim.Time) {
	if t <= c.last {
		return
	}
	dt := t.Sub(c.last)
	if c.io > 0 {
		c.ioT += dt
		if c.compute > 0 {
			c.bothT += dt
		}
	}
	if c.compute > 0 {
		c.computeT += dt
	}
	c.last = t
}

func (r *Recorder) rank(rank int) *rankClock {
	c := r.ranks[rank]
	if c == nil {
		if r.ranks == nil {
			r.ranks = map[int]*rankClock{}
		}
		c = &rankClock{}
		r.ranks[rank] = c
	}
	return c
}

// Begin opens a span of kind k on rank at start.
func (r *Recorder) Begin(rank int, k Kind, start sim.Time) {
	c := r.rank(rank)
	c.advance(start)
	if k == Compute {
		c.compute++
	} else {
		c.io++
	}
}

// Record closes the span that Begin(rank, k, start) opened, at end.
// Zero- and negative-length spans count for nothing and are kept out of
// the log.
func (r *Recorder) Record(rank int, k Kind, start, end sim.Time, bytes int64) {
	c := r.rank(rank)
	c.advance(end)
	if k == Compute {
		c.compute--
	} else {
		c.io--
	}
	if end <= start {
		return
	}
	c.seen = true
	if k != Compute {
		c.bytes += bytes
	}
	if r.log {
		r.spans = append(r.spans, Span{Rank: rank, Kind: k, Start: start, End: end, Bytes: bytes})
	}
}

// Spans returns the logged spans in record order (none for a zero
// Recorder).
func (r *Recorder) Spans() []Span { return r.spans }

// Len returns the logged span count.
func (r *Recorder) Len() int { return len(r.spans) }

// Analysis returns the decomposition of the spans closed so far.
func (r *Recorder) Analysis() Analysis {
	var a Analysis
	for _, c := range r.ranks {
		if !c.seen {
			continue
		}
		a.Ranks++
		a.TotalIO += c.ioT
		a.OverlapIO += c.bothT
		a.ComputeTime += c.computeT
		a.Bytes += c.bytes
	}
	a.NonOverlapIO = a.TotalIO - a.OverlapIO
	return a
}

// Analysis is the per-run I/O time decomposition.
type Analysis struct {
	// Ranks is the number of distinct ranks seen.
	Ranks int
	// TotalIO is the summed read-span time across ranks (overlapping reads
	// within one rank are unioned first: four I/O threads fetching at once
	// occupy the rank's pipeline once, not four times).
	TotalIO sim.Duration
	// OverlapIO is the part of TotalIO that ran concurrently with the same
	// rank's compute.
	OverlapIO sim.Duration
	// NonOverlapIO = TotalIO - OverlapIO: the stalls the application
	// perceives.
	NonOverlapIO sim.Duration
	// ComputeTime is the summed (unioned per rank) compute time.
	ComputeTime sim.Duration
	// Bytes is the total payload read.
	Bytes int64
}

// AppThroughput returns bytes over the I/O time the application perceives
// (non-overlapping only). Fully hidden I/O yields +Inf-free large values
// because the first batch can never overlap; callers report it as is.
func (a Analysis) AppThroughput() float64 {
	if a.NonOverlapIO <= 0 {
		return 0
	}
	return float64(a.Bytes) / a.NonOverlapIO.Seconds()
}

// SysThroughput returns bytes over total I/O time.
func (a Analysis) SysThroughput() float64 {
	if a.TotalIO <= 0 {
		return 0
	}
	return float64(a.Bytes) / a.TotalIO.Seconds()
}

// HiddenFraction returns OverlapIO/TotalIO — how much of the I/O the
// asynchronous input pipeline managed to hide.
func (a Analysis) HiddenFraction() float64 {
	if a.TotalIO <= 0 {
		return 0
	}
	return a.OverlapIO.Seconds() / a.TotalIO.Seconds()
}

// String renders the decomposition.
func (a Analysis) String() string {
	return fmt.Sprintf("io=%v (overlap=%v nonoverlap=%v) compute=%v hidden=%.0f%%",
		a.TotalIO, a.OverlapIO, a.NonOverlapIO, a.ComputeTime, 100*a.HiddenFraction())
}

// Analyze computes the decomposition of a span log by replaying its span
// boundaries, in time order, through a Recorder: the same accumulator the
// online analysis uses, so Analyze(rec.Spans()) equals rec.Analysis().
// Spans with End <= Start count for nothing, as Record treats them.
func Analyze(spans []Span) Analysis {
	type boundary struct {
		at   sim.Time
		span int
		open bool
	}
	bs := make([]boundary, 0, 2*len(spans))
	for i, s := range spans {
		if s.End > s.Start {
			bs = append(bs, boundary{s.Start, i, true}, boundary{s.End, i, false})
		}
	}
	// The order among boundaries at one instant does not matter: each
	// span closes after it opens, and no time passes between them.
	sort.Slice(bs, func(a, b int) bool { return bs[a].at < bs[b].at })
	var r Recorder
	for _, b := range bs {
		s := spans[b.span]
		if b.open {
			r.Begin(s.Rank, s.Kind, s.Start)
		} else {
			r.Record(s.Rank, s.Kind, s.Start, s.End, s.Bytes)
		}
	}
	return r.Analysis()
}

// chromeEvent is one Chrome trace-event ("X" complete events).
type chromeEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`  // microseconds
	Dur  float64 `json:"dur"` // microseconds
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
	Args struct {
		Bytes int64 `json:"bytes,omitempty"`
	} `json:"args"`
}

// WriteChromeTrace serializes the spans as a Chrome trace-event JSON array
// (load it in chrome://tracing or Perfetto).
func WriteChromeTrace(w io.Writer, spans []Span) error {
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		ev := chromeEvent{
			Name: s.Kind.String(),
			Ph:   "X",
			Ts:   float64(s.Start) / 1e3,
			Dur:  float64(s.Duration()) / 1e3,
			Pid:  s.Rank,
			Tid:  int(s.Kind),
		}
		ev.Args.Bytes = s.Bytes
		events = append(events, ev)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{events})
}

// ReadChromeTrace parses a trace written by WriteChromeTrace back into
// spans (used by cmd/tracestat).
func ReadChromeTrace(r io.Reader) ([]Span, error) {
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("trace: %v", err)
	}
	spans := make([]Span, 0, len(doc.TraceEvents))
	for _, ev := range doc.TraceEvents {
		k := Read
		switch ev.Name {
		case "compute":
			k = Compute
		case "write":
			k = Write
		}
		start := sim.Time(ev.Ts * 1e3)
		spans = append(spans, Span{
			Rank:  ev.Pid,
			Kind:  k,
			Start: start,
			End:   start + sim.Time(ev.Dur*1e3),
			Bytes: ev.Args.Bytes,
		})
	}
	return spans, nil
}
