// Trace ingestion: recorded production traffic becomes simulator input.
//
// The simulator's own recorder (trace.Recorder) captures spans it generated
// itself; this file goes the other way. It parses traffic that was recorded
// outside the simulator — per-request CSV logs, JSONL event streams, or
// Darshan/DFTracer-style HPC span logs (darshan.go) — and normalizes all of
// them into one Event schema that the open-loop traffic engine can replay
// against any backend (traffic.ReplayTrace) and the fidelity harness can
// audit against (internal/fidelity). An Event is one recorded request: when
// it was issued, by which tenant, what operation, how many bytes, and —
// when the recording system measured it — how long it took. The recorded
// latency is never used to *drive* the replay (the target system decides
// how long each request takes); it is the measured reality the fidelity
// audit holds the model to.
package trace

import (
	"bytes"
	"cmp"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"

	"storagesim/internal/sim"
	"storagesim/internal/units"
)

// Op names the recorded operation of one request, the trace-side mirror of
// the traffic engine's workload kinds.
type Op string

// Operation kinds.
const (
	// OpRead is a sequential read of Bytes.
	OpRead Op = "read"
	// OpRandRead is a random-access read of Bytes.
	OpRandRead Op = "rand-read"
	// OpWrite is a sequential write of Bytes.
	OpWrite Op = "write"
	// OpMeta is a metadata round trip (open/close); it moves no bytes.
	OpMeta Op = "meta"
)

// Valid reports whether o is a known operation.
func (o Op) Valid() bool {
	switch o {
	case OpRead, OpRandRead, OpWrite, OpMeta:
		return true
	}
	return false
}

// MovesData reports whether the operation transfers payload bytes.
func (o Op) MovesData() bool { return o != OpMeta }

// Event is one recorded request in the common ingestion schema.
type Event struct {
	// At is the request's issue time. Parsers deliver whatever clock the
	// recording used; Normalize rebases the trace so the first event is at
	// t=0 (the simulator starts every run at zero).
	At sim.Time
	// Tenant is the traffic class the request belongs to (normalized to
	// lower case, see Normalize).
	Tenant string
	// Op is the recorded operation.
	Op Op
	// Bytes is the request payload (> 0 for data ops, 0 for OpMeta).
	Bytes int64
	// IO is the recorded per-op transfer size within the request, 0 when
	// the recording did not capture it (replay then uses its configured
	// default). Op size changes how a request loads the target — the same
	// megabyte costs more in 4 KiB ops than in one — so recordings that
	// have it should keep it.
	IO int64
	// Latency is the recorded completion latency, 0 when the recording did
	// not measure it. Fidelity audits need it; replay does not.
	Latency sim.Duration
	// Rank is the recording client/rank, or -1 when unknown. Replay pins
	// rank r onto compute node r mod nodes, so co-located requests stay
	// co-located.
	Rank int
	// File is the recorded path, "" when unknown (replay then rotates
	// through a bounded synthetic file set).
	File string
	// ID is the recorded request id, "" when absent. Normalize rejects
	// duplicates: a repeated id means the recording double-counted.
	ID string
}

// Trace is a normalized event sequence: validated, sorted by issue time,
// rebased to start at t=0.
type Trace struct {
	Events []Event
}

// Duration returns the trace span: first issue (t=0 after rebasing) to the
// last recorded completion — or the last issue when latencies were not
// recorded.
func (t *Trace) Duration() sim.Duration {
	var end sim.Time
	for _, ev := range t.Events {
		if c := ev.At.Add(ev.Latency); c > end {
			end = c
		}
	}
	return end.Sub(0)
}

// TenantNames returns the distinct tenant names in sorted order.
func (t *Trace) TenantNames() []string {
	seen := map[string]bool{}
	var names []string
	for _, ev := range t.Events {
		if !seen[ev.Tenant] {
			seen[ev.Tenant] = true
			names = append(names, ev.Tenant)
		}
	}
	sort.Strings(names)
	return names
}

// HasLatencies reports whether every event carries a recorded latency —
// the precondition for a latency fidelity audit.
func (t *Trace) HasLatencies() bool {
	for _, ev := range t.Events {
		if ev.Latency <= 0 {
			return false
		}
	}
	return len(t.Events) > 0
}

// NormalizeTenant maps a recorded tenant label to its canonical form:
// trimmed, lower-cased, inner whitespace collapsed to "-". Tenant names
// become path components and fabric flow tags, so they must be stable
// across recording systems that disagree about case and spacing.
func NormalizeTenant(raw string) string {
	return strings.Join(strings.Fields(strings.ToLower(raw)), "-")
}

// validate reports the first problem with a single (pre-normalization)
// event. i is the event's position for error messages.
func (e *Event) validate(i int) error {
	switch {
	case e.Tenant == "":
		return fmt.Errorf("event %d: empty tenant", i)
	case !e.Op.Valid():
		return fmt.Errorf("event %d: unknown op %q", i, e.Op)
	case e.Op.MovesData() && e.Bytes <= 0:
		return fmt.Errorf("event %d: %s of %d bytes (data ops need positive bytes)", i, e.Op, e.Bytes)
	case !e.Op.MovesData() && (e.Bytes != 0 || e.IO != 0):
		return fmt.Errorf("event %d: %s carries %d bytes (metadata ops move none)", i, e.Op, e.Bytes+e.IO)
	case e.IO < 0:
		return fmt.Errorf("event %d: negative io size %d", i, e.IO)
	case e.At < 0:
		return fmt.Errorf("event %d: negative timestamp %v", i, sim.Duration(e.At))
	case e.Latency < 0:
		return fmt.Errorf("event %d: negative latency %v", i, e.Latency)
	case e.Rank < -1:
		return fmt.Errorf("event %d: rank %d out of range", i, e.Rank)
	}
	return nil
}

// Normalize validates raw parsed events and produces a Trace: tenant names
// canonicalized (two *distinct* recorded names that collide after
// canonicalization are an error — silently merging "ML " into "ml" would
// misattribute every byte), duplicate request ids rejected, events stably
// sorted by issue time (recorded logs are routinely out of order across
// ranks), and timestamps rebased so the first event is at t=0.
func Normalize(events []Event) (*Trace, error) {
	if len(events) == 0 {
		return nil, fmt.Errorf("trace: no events")
	}
	out := make([]Event, len(events))
	copy(out, events)
	// Each distinct raw spelling is folded and checked once, at its first
	// event: a later event of the same spelling would pass both checks.
	folded := map[string]string{} // raw spelling -> normalized
	canon := map[string]string{}  // normalized -> first raw spelling
	ids := map[string]int{}
	for i := range out {
		ev := &out[i]
		if err := ev.validate(i); err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
		norm, ok := folded[ev.Tenant]
		if !ok {
			norm = NormalizeTenant(ev.Tenant)
			if norm == "" {
				return nil, fmt.Errorf("trace: event %d: tenant %q normalizes to nothing", i, ev.Tenant)
			}
			if first, ok := canon[norm]; ok {
				return nil, fmt.Errorf("trace: tenants %q and %q collide after normalization (%q)", first, ev.Tenant, norm)
			}
			canon[norm] = ev.Tenant
			folded[ev.Tenant] = norm
		}
		ev.Tenant = norm
		if ev.ID != "" {
			if j, dup := ids[ev.ID]; dup {
				return nil, fmt.Errorf("trace: events %d and %d share request id %q", j, i, ev.ID)
			}
			ids[ev.ID] = i
		}
	}
	slices.SortStableFunc(out, func(a, b Event) int { return cmp.Compare(a.At, b.At) })
	base := out[0].At
	for i := range out {
		out[i].At -= base
	}
	return &Trace{Events: out}, nil
}

// Format names a trace encoding.
type Format string

// Supported trace encodings.
const (
	// CSV is the per-request table format (see ParseCSV).
	CSV Format = "csv"
	// JSONL is one JSON event object per line (see ParseJSONL).
	JSONL Format = "jsonl"
	// DXT is the Darshan DXT text dump (see ParseDXT in darshan.go).
	DXT Format = "dxt"
	// Chrome is the DFTracer-style Chrome trace-event JSON this package
	// already reads and writes (spans converted via EventsFromSpans).
	Chrome Format = "chrome"
)

// DetectFormat guesses the encoding from a file name. Unknown extensions
// default to CSV, the plainest of the formats.
func DetectFormat(name string) Format {
	switch strings.ToLower(filepath.Ext(name)) {
	case ".jsonl", ".ndjson":
		return JSONL
	case ".json":
		return Chrome
	case ".dxt", ".darshan":
		return DXT
	default:
		return CSV
	}
}

// ParseEvents parses data in the given format into raw events (pass them
// through Normalize before use). tenant is the fallback traffic class for
// formats that do not record one (DXT, Chrome).
func ParseEvents(data []byte, f Format, tenant string) ([]Event, error) {
	switch f {
	case CSV:
		return ParseCSV(bytes.NewReader(data))
	case JSONL:
		return parseJSONL(data)
	case DXT:
		return ParseDXT(bytes.NewReader(data), tenant)
	case Chrome:
		spans, err := ReadChromeTrace(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		return EventsFromSpans(spans, tenant), nil
	}
	return nil, fmt.Errorf("trace: unknown format %q", f)
}

// CSV format: a header row naming a subset of the known columns, then one
// row per request.
//
//	ts,tenant,op,bytes,io,latency,rank,file,id
//	0,ml,rand-read,1m,128k,12ms,3,/data/f1,r1
//	0.25,ckpt,write,4m,,,0,,
//
// ts and latency accept Go duration syntax or bare seconds; bytes and io
// accept the IOR suffix syntax ("1m", "256k") or a bare count. ts, tenant
// and op are required; the rest may be empty or omitted entirely. Unknown
// columns are rejected, the DisallowUnknownFields stance of
// traffic.ParseSpec: a typoed "latncy" column silently dropping every
// recorded latency would void a whole fidelity audit.

// csvColumns is the full recognized header set.
var csvColumns = []string{"ts", "tenant", "op", "bytes", "io", "latency", "rank", "file", "id"}

// ParseCSV parses the CSV trace format.
func ParseCSV(r io.Reader) ([]Event, error) {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("trace: csv: no header: %v", err)
	}
	col := map[string]int{}
	for i, name := range header {
		name = strings.TrimSpace(strings.ToLower(name))
		known := false
		for _, k := range csvColumns {
			if name == k {
				known = true
				break
			}
		}
		if !known {
			return nil, fmt.Errorf("trace: csv: unknown column %q", name)
		}
		if _, dup := col[name]; dup {
			return nil, fmt.Errorf("trace: csv: duplicate column %q", name)
		}
		col[name] = i
	}
	for _, req := range []string{"ts", "tenant", "op"} {
		if _, ok := col[req]; !ok {
			return nil, fmt.Errorf("trace: csv: missing required column %q", req)
		}
	}
	field := func(row []string, name string) string {
		i, ok := col[name]
		if !ok || i >= len(row) {
			return ""
		}
		return strings.TrimSpace(row[i])
	}
	var events []Event
	for line := 2; ; line++ {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("trace: csv line %d: %v", line, err)
		}
		ev := Event{Rank: -1}
		ts, err := units.ParseDuration(field(row, "ts"))
		if err != nil {
			return nil, fmt.Errorf("trace: csv line %d: ts: %v", line, err)
		}
		ev.At = sim.Time(0).Add(ts)
		ev.Tenant = field(row, "tenant")
		ev.Op = Op(field(row, "op"))
		if s := field(row, "bytes"); s != "" {
			b, err := units.ParseBytes(s)
			if err != nil {
				return nil, fmt.Errorf("trace: csv line %d: bytes: %v", line, err)
			}
			ev.Bytes = int64(b)
		}
		if s := field(row, "io"); s != "" {
			b, err := units.ParseBytes(s)
			if err != nil {
				return nil, fmt.Errorf("trace: csv line %d: io: %v", line, err)
			}
			ev.IO = int64(b)
		}
		if s := field(row, "latency"); s != "" {
			if ev.Latency, err = units.ParseDuration(s); err != nil {
				return nil, fmt.Errorf("trace: csv line %d: latency: %v", line, err)
			}
		}
		if s := field(row, "rank"); s != "" {
			if ev.Rank, err = strconv.Atoi(s); err != nil {
				return nil, fmt.Errorf("trace: csv line %d: rank: %v", line, err)
			}
		}
		ev.File = field(row, "file")
		ev.ID = field(row, "id")
		events = append(events, ev)
	}
	return events, nil
}

// WriteCSV renders events in the canonical CSV form ParseCSV reads back
// (durations in Go syntax, bytes as bare counts).
func WriteCSV(w io.Writer, events []Event) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvColumns); err != nil {
		return err
	}
	for _, ev := range events {
		rank := ""
		if ev.Rank >= 0 {
			rank = strconv.Itoa(ev.Rank)
		}
		lat := ""
		if ev.Latency != 0 {
			lat = ev.Latency.String()
		}
		io := ""
		if ev.IO != 0 {
			io = strconv.FormatInt(ev.IO, 10)
		}
		row := []string{
			sim.Duration(ev.At).String(),
			ev.Tenant,
			string(ev.Op),
			strconv.FormatInt(ev.Bytes, 10),
			io,
			lat,
			rank,
			ev.File,
			ev.ID,
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// JSONL format: one JSON object per line, blank lines skipped.
//
//	{"ts":"1.5s","tenant":"ml","op":"rand-read","bytes":"1m","latency":"12ms","rank":3,"file":"/f","id":"r1"}
//
// Fields mirror the CSV columns; "bytes" accepts a number or a suffixed
// string. Unknown fields are rejected per line.
//
// Decoding is one pass over the input. The scanner (scanJSONLine) decodes
// every line whose syntax it fully recognises, all of WriteJSONL's output
// among them, and hands any other line to decodeJSONLine, the
// encoding/json decoder. The scanner only accepts a line the reference
// decodes to the same event, so every error and every non-canonical
// acceptance is the reference's, byte for byte.

// jsonBytes accepts a JSON number or a size string with IOR suffixes.
type jsonBytes int64

func (b *jsonBytes) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err == nil {
		v, err := units.ParseBytes(s)
		if err != nil {
			return err
		}
		*b = jsonBytes(v)
		return nil
	}
	var n int64
	if err := json.Unmarshal(data, &n); err != nil {
		return fmt.Errorf("bytes must be a number or a size string: %s", data)
	}
	*b = jsonBytes(n)
	return nil
}

func (b jsonBytes) MarshalJSON() ([]byte, error) {
	return []byte(strconv.FormatInt(int64(b), 10)), nil
}

type jsonEvent struct {
	Ts      string    `json:"ts"`
	Tenant  string    `json:"tenant"`
	Op      string    `json:"op"`
	Bytes   jsonBytes `json:"bytes,omitempty"`
	IO      jsonBytes `json:"io,omitempty"`
	Latency string    `json:"latency,omitempty"`
	Rank    *int      `json:"rank,omitempty"`
	File    string    `json:"file,omitempty"`
	ID      string    `json:"id,omitempty"`
}

// ParseJSONL parses the JSONL trace format.
func ParseJSONL(r io.Reader) ([]Event, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("trace: jsonl: %v", err)
	}
	return parseJSONL(data)
}

// parseJSONL splits data into lines in place rather than with
// bufio.Scanner (recorded lines can exceed any fixed token size) and
// decodes each. Tenant and op names are interned: a trace has few of each.
func parseJSONL(data []byte) ([]Event, error) {
	events := make([]Event, 0, bytes.Count(data, newline)+1)
	names := interner{}
	for n := 1; len(data) > 0; n++ {
		var line []byte
		line, data, _ = bytes.Cut(data, newline)
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		ev, ok := scanJSONLine(line, names)
		if !ok {
			var err error
			if ev, err = decodeJSONLine(line, n); err != nil {
				return nil, err
			}
		}
		events = append(events, ev)
	}
	return events, nil
}

var newline = []byte{'\n'}

// decodeJSONLine decodes line n, already trimmed, with encoding/json: the
// fallback for every line the scanner declines and the reference the
// scanner is fuzzed against.
func decodeJSONLine(line []byte, n int) (Event, error) {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	var je jsonEvent
	if err := dec.Decode(&je); err != nil {
		return Event{}, fmt.Errorf("trace: jsonl line %d: %v", n, err)
	}
	// The event must end the line. Decoder.More cannot tell: it reports
	// false before a closing '}' or ']'.
	if dec.InputOffset() != int64(len(line)) {
		return Event{}, fmt.Errorf("trace: jsonl line %d: trailing data after event", n)
	}
	ev := Event{
		Tenant: je.Tenant,
		Op:     Op(je.Op),
		Bytes:  int64(je.Bytes),
		IO:     int64(je.IO),
		File:   je.File,
		ID:     je.ID,
		Rank:   -1,
	}
	ts, err := units.ParseDuration(je.Ts)
	if err != nil {
		return Event{}, fmt.Errorf("trace: jsonl line %d: ts: %v", n, err)
	}
	ev.At = sim.Time(0).Add(ts)
	if je.Latency != "" {
		if ev.Latency, err = units.ParseDuration(je.Latency); err != nil {
			return Event{}, fmt.Errorf("trace: jsonl line %d: latency: %v", n, err)
		}
	}
	if je.Rank != nil {
		ev.Rank = *je.Rank
	}
	return ev, nil
}

// WriteJSONL renders events in the canonical JSONL form ParseJSONL reads
// back — the format the traffic engine's recording observer emits, so a
// synthetic run can be re-ingested bit-for-bit (the round-trip fidelity
// test).
func WriteJSONL(w io.Writer, events []Event) error {
	enc := json.NewEncoder(w)
	for i := range events {
		ev := &events[i]
		je := jsonEvent{
			Ts:     sim.Duration(ev.At).String(),
			Tenant: ev.Tenant,
			Op:     string(ev.Op),
			Bytes:  jsonBytes(ev.Bytes),
			IO:     jsonBytes(ev.IO),
			File:   ev.File,
			ID:     ev.ID,
		}
		if ev.Latency != 0 {
			je.Latency = ev.Latency.String()
		}
		if ev.Rank >= 0 {
			rank := ev.Rank
			je.Rank = &rank
		}
		if err := enc.Encode(&je); err != nil {
			return err
		}
	}
	return nil
}
