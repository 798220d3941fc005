package trace

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"storagesim/internal/sim"
)

// ev builds a valid data event for tests; fields are then perturbed.
func ev(at sim.Duration, tenant string, op Op, bytes int64) Event {
	return Event{At: sim.Time(0).Add(at), Tenant: tenant, Op: op, Bytes: bytes, Rank: -1}
}

// TestNormalizeSortsAndRebases: recorded logs are routinely out of order
// across ranks and on an arbitrary clock; Normalize must deliver a stably
// sorted stream starting at t=0.
func TestNormalizeSortsAndRebases(t *testing.T) {
	a := ev(5*time.Second, "a", OpRead, 10)
	b := ev(3*time.Second, "b", OpWrite, 20)
	c := ev(9*time.Second, "c", OpRead, 30)
	tr, err := Normalize([]Event{a, b, c})
	if err != nil {
		t.Fatal(err)
	}
	if got := []string{tr.Events[0].Tenant, tr.Events[1].Tenant, tr.Events[2].Tenant}; !reflect.DeepEqual(got, []string{"b", "a", "c"}) {
		t.Fatalf("sort order %v", got)
	}
	if tr.Events[0].At != 0 {
		t.Fatalf("first event not rebased to 0: %v", tr.Events[0].At)
	}
	if d := tr.Events[2].At.Sub(tr.Events[0].At); d != 6*time.Second {
		t.Fatalf("relative spacing changed: %v", d)
	}
	// Equal timestamps: the sort must be stable (recording order is the
	// only tiebreak the data offers).
	x := ev(time.Second, "x", OpRead, 1)
	y := ev(time.Second, "y", OpRead, 1)
	tr, err = Normalize([]Event{x, y})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Events[0].Tenant != "x" || tr.Events[1].Tenant != "y" {
		t.Fatalf("tie order not stable: %v %v", tr.Events[0].Tenant, tr.Events[1].Tenant)
	}
}

// TestNormalizeTenantNames: canonicalization folds case and whitespace;
// distinct recorded spellings that collide are an error, the same spelling
// repeated is not.
func TestNormalizeTenantNames(t *testing.T) {
	tr, err := Normalize([]Event{ev(0, "ML Train", OpRead, 1), ev(time.Second, "ML Train", OpRead, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Events[0].Tenant != "ml-train" {
		t.Fatalf("canonical name %q", tr.Events[0].Tenant)
	}
	_, err = Normalize([]Event{ev(0, "ML ", OpRead, 1), ev(time.Second, "ml", OpRead, 1)})
	if err == nil || !strings.Contains(err.Error(), "collide") {
		t.Fatalf("colliding tenants accepted: %v", err)
	}
}

// TestNormalizeRejects: the validation table — every malformed event the
// parsers can deliver must be refused with a pointed error.
func TestNormalizeRejects(t *testing.T) {
	dup1 := ev(0, "a", OpRead, 1)
	dup1.ID = "r1"
	dup2 := ev(time.Second, "a", OpRead, 1)
	dup2.ID = "r1"
	metaBytes := ev(0, "a", OpMeta, 0)
	metaBytes.Bytes = 7
	metaIO := ev(0, "a", OpMeta, 0)
	metaIO.IO = 7
	negIO := ev(0, "a", OpRead, 8)
	negIO.IO = -1
	negAt := ev(0, "a", OpRead, 8)
	negAt.At = -5
	negLat := ev(0, "a", OpRead, 8)
	negLat.Latency = -time.Second
	badRank := ev(0, "a", OpRead, 8)
	badRank.Rank = -2
	cases := []struct {
		name   string
		events []Event
		want   string
	}{
		{"no events", nil, "no events"},
		{"empty tenant", []Event{ev(0, "", OpRead, 1)}, "empty tenant"},
		{"blank tenant", []Event{ev(0, "  ", OpRead, 1)}, "normalizes to nothing"},
		{"unknown op", []Event{ev(0, "a", Op("scan"), 1)}, "unknown op"},
		{"zero-byte read", []Event{ev(0, "a", OpRead, 0)}, "positive bytes"},
		{"negative-byte write", []Event{ev(0, "a", OpWrite, -4)}, "positive bytes"},
		{"meta with bytes", []Event{metaBytes}, "move none"},
		{"meta with io", []Event{metaIO}, "move none"},
		{"negative io", []Event{negIO}, "negative io"},
		{"negative timestamp", []Event{negAt}, "negative timestamp"},
		{"negative latency", []Event{negLat}, "negative latency"},
		{"rank out of range", []Event{badRank}, "out of range"},
		{"duplicate ids", []Event{dup1, dup2}, "share request id"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Normalize(tc.events)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
}

// TestParseCSV: the documented format, optional fields and all.
func TestParseCSV(t *testing.T) {
	const in = `ts,tenant,op,bytes,io,latency,rank,file,id
0,ml,rand-read,1m,128k,12ms,3,/data/f1,r1
0.25,ckpt,write,4m,,,0,,
1.5s,meta,meta,,,,,,
`
	events, err := ParseCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{
		{At: 0, Tenant: "ml", Op: OpRandRead, Bytes: 1 << 20, IO: 128 << 10, Latency: 12 * time.Millisecond, Rank: 3, File: "/data/f1", ID: "r1"},
		{At: sim.Time(250 * time.Millisecond), Tenant: "ckpt", Op: OpWrite, Bytes: 4 << 20, Rank: 0},
		{At: sim.Time(1500 * time.Millisecond), Tenant: "meta", Op: OpMeta, Rank: -1},
	}
	if !reflect.DeepEqual(events, want) {
		t.Fatalf("parsed:\n%+v\nwant:\n%+v", events, want)
	}
}

// TestParseCSVRejects: header and value errors, including the
// unknown-column stance (a typoed column must not silently drop data).
func TestParseCSVRejects(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"unknown column", "ts,tenant,op,latncy\n0,a,read,1ms\n", `unknown column "latncy"`},
		{"duplicate column", "ts,tenant,op,ts\n", "duplicate column"},
		{"missing required", "tenant,op\na,read\n", `missing required column "ts"`},
		{"bad ts", "ts,tenant,op\nnope,a,read\n", "ts:"},
		{"bad bytes", "ts,tenant,op,bytes\n0,a,read,12q\n", "bytes:"},
		{"bad io", "ts,tenant,op,io\n0,a,read,12q\n", "io:"},
		{"bad latency", "ts,tenant,op,latency\n0,a,read,fast\n", "latency:"},
		{"bad rank", "ts,tenant,op,rank\n0,a,read,three\n", "rank:"},
		{"no header", "", "no header"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseCSV(strings.NewReader(tc.in))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
}

// TestParseJSONL: the documented format; unknown fields rejected per line,
// bytes as number or suffixed string, blank lines skipped.
func TestParseJSONL(t *testing.T) {
	const in = `
{"ts":"1.5s","tenant":"ml","op":"rand-read","bytes":"1m","io":131072,"latency":"12ms","rank":3,"file":"/f","id":"r1"}

{"ts":"2s","tenant":"meta","op":"meta"}
`
	events, err := ParseJSONL(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{
		{At: sim.Time(1500 * time.Millisecond), Tenant: "ml", Op: OpRandRead, Bytes: 1 << 20, IO: 128 << 10, Latency: 12 * time.Millisecond, Rank: 3, File: "/f", ID: "r1"},
		{At: sim.Time(2 * time.Second), Tenant: "meta", Op: OpMeta, Rank: -1},
	}
	if !reflect.DeepEqual(events, want) {
		t.Fatalf("parsed:\n%+v\nwant:\n%+v", events, want)
	}
	cases := []struct {
		name, in, want string
	}{
		{"unknown field", `{"ts":"0","tenant":"a","op":"read","bytes":1,"latncy":"1ms"}`, "latncy"},
		{"trailing data", `{"ts":"0","tenant":"a","op":"read","bytes":1} {"x":1}`, "trailing data"},
		{"trailing brace", `{"ts":"0","tenant":"a","op":"read","bytes":1}}`, "trailing data"},
		{"trailing bracket", `{"ts":"0","tenant":"a","op":"read","bytes":1}]`, "trailing data"},
		{"trailing closers", `{"ts":"0","tenant":"a","op":"read","bytes":1}]]}}`, "trailing data"},
		{"bad ts", `{"ts":"soon","tenant":"a","op":"read","bytes":1}`, "ts:"},
		{"bad bytes", `{"ts":"0","tenant":"a","op":"read","bytes":true}`, "bytes must be"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseJSONL(strings.NewReader(tc.in))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
}

// randomEvents draws n events that cover the canonical JSONL form: all
// four ops; rank, io and latency each present and absent; a file on three
// events in four and an id on one in four; durations from nanoseconds to
// hours.
func randomEvents(seed int64, n int) []Event {
	rng := rand.New(rand.NewSource(seed))
	tenants := []string{"ml", "ckpt", "Équipe B", "meta"}
	ops := []Op{OpRead, OpRandRead, OpWrite, OpMeta}
	duration := func(i int) sim.Duration {
		// 1 ns to 2.8 h: one decade per step of i.
		return sim.Duration((1 + rng.Float64()*9) * math.Pow(10, float64(i%13)))
	}
	events := make([]Event, n)
	for i := range events {
		ev := Event{At: sim.Time(duration(i)), Tenant: tenants[rng.Intn(len(tenants))], Op: ops[i%4], Rank: -1}
		if ev.Op.MovesData() {
			ev.Bytes = 1 + rng.Int63n(64<<20)
			if i/4%2 == 0 {
				ev.IO = 1 + rng.Int63n(ev.Bytes)
			}
		}
		if i/8%2 == 0 {
			ev.Latency = duration(i / 16)
		}
		if i/16%2 == 0 {
			ev.Rank = rng.Intn(1024)
		}
		if rng.Intn(4) != 0 {
			ev.File = fmt.Sprintf("/traffic/%s/n%d/f%d", ev.Tenant, rng.Intn(8), rng.Intn(64))
		}
		if rng.Intn(4) == 0 {
			ev.ID = fmt.Sprintf("r-%d", i)
		}
		events[i] = ev
	}
	return events
}

// canonicalJSONL renders n random events with WriteJSONL.
func canonicalJSONL(t testing.TB, n int) []byte {
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, randomEvents(1, n)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestScanJSONLCanonical: the scanner decodes every line WriteJSONL emits
// itself, to the reference's event. A scanner that quietly sent
// everything to the reference would pass every other test.
func TestScanJSONLCanonical(t *testing.T) {
	data := canonicalJSONL(t, 1000)
	names := interner{}
	for n, line := range bytes.Split(bytes.TrimSuffix(data, newline), newline) {
		got, ok := scanJSONLine(line, names)
		if !ok {
			t.Fatalf("line %d falls back to the reference: %s", n+1, line)
		}
		want, err := decodeJSONLine(line, n+1)
		if err != nil {
			t.Fatalf("reference rejects line %d: %v", n+1, err)
		}
		if got != want {
			t.Fatalf("line %d: scanner %+v, reference %+v", n+1, got, want)
		}
	}
	events, err := ParseJSONL(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if want := randomEvents(1, 1000); !reflect.DeepEqual(events, want) {
		t.Fatal("ParseJSONL does not reproduce the written events")
	}
}

// TestParseJSONLAllocs: decoding a canonical trace allocates the event
// slice, the interned names, and one string per file or id, not a decoder
// per line. It goes through ParseEvents, which takes the bytes as they
// are, as the trace-replay commands do.
func TestParseJSONLAllocs(t *testing.T) {
	const n = 10000
	data := canonicalJSONL(t, n)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := ParseEvents(data, JSONL, ""); err != nil {
			t.Fatal(err)
		}
	})
	if perEvent := allocs / n; perEvent > 3 {
		t.Fatalf("%.2f allocations per event, budget 3", perEvent)
	}
}

// TestNormalizeAllocs: Normalize folds each tenant spelling once and
// sorts without reflection, so its allocations do not grow with the
// event count (the id map's growth aside).
func TestNormalizeAllocs(t *testing.T) {
	const n = 10000
	events := randomEvents(1, n)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Normalize(events); err != nil {
			t.Fatal(err)
		}
	})
	if perEvent := allocs / n; perEvent > 0.01 {
		t.Fatalf("%.3f allocations per event, budget 0.01", perEvent)
	}
}

// BenchmarkParseJSONL decodes a canonical 10k-event trace held in memory.
func BenchmarkParseJSONL(b *testing.B) {
	data := canonicalJSONL(b, 10000)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseEvents(data, JSONL, ""); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCodecRoundTrips: normalized events survive Write/Parse bit for bit
// in both self-describing encodings.
func TestCodecRoundTrips(t *testing.T) {
	src := []Event{
		{At: 0, Tenant: "ml", Op: OpRandRead, Bytes: 1 << 20, IO: 128 << 10, Latency: 587227 * time.Nanosecond, Rank: 1, File: "/traffic/ml/n1/f0", ID: "a-1"},
		{At: sim.Time(time.Millisecond), Tenant: "ckpt", Op: OpWrite, Bytes: 4 << 20, IO: 1 << 20, Latency: time.Millisecond, Rank: 0},
		{At: sim.Time(2 * time.Millisecond), Tenant: "meta", Op: OpMeta, Rank: -1},
	}
	tr, err := Normalize(src)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("csv", func(t *testing.T) {
		var buf bytes.Buffer
		if err := WriteCSV(&buf, tr.Events); err != nil {
			t.Fatal(err)
		}
		back, err := ParseCSV(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%v\n%s", err, buf.String())
		}
		if !reflect.DeepEqual(back, tr.Events) {
			t.Fatalf("csv round trip:\n%+v\nwant:\n%+v", back, tr.Events)
		}
	})
	t.Run("jsonl", func(t *testing.T) {
		var buf bytes.Buffer
		if err := WriteJSONL(&buf, tr.Events); err != nil {
			t.Fatal(err)
		}
		back, err := ParseJSONL(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%v\n%s", err, buf.String())
		}
		if !reflect.DeepEqual(back, tr.Events) {
			t.Fatalf("jsonl round trip:\n%+v\nwant:\n%+v", back, tr.Events)
		}
	})
}

// TestParseDXT: the Darshan DXT dump format — header file attribution,
// per-segment events with IO = Bytes (a segment is one op).
func TestParseDXT(t *testing.T) {
	const in = `# darshan-dxt-parser output
# DXT, file_id: 16592106915301738621, file_name: /p/lustre/ior.data, nprocs: 2
X_POSIX	0	write	0	0	1048576	0.0013	0.0130
X_POSIX	1	read	1	1048576	524288	0.0020	0.0040
`
	events, err := ParseDXT(strings.NewReader(in), "")
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{
		{At: sim.Time(1300 * time.Microsecond), Tenant: DefaultHPCTenant, Op: OpWrite, Bytes: 1 << 20, IO: 1 << 20,
			Latency: sim.Duration(11700 * time.Microsecond), Rank: 0, File: "/p/lustre/ior.data"},
		{At: sim.Time(2 * time.Millisecond), Tenant: DefaultHPCTenant, Op: OpRead, Bytes: 512 << 10, IO: 512 << 10,
			Latency: 2 * time.Millisecond, Rank: 1, File: "/p/lustre/ior.data"},
	}
	if !reflect.DeepEqual(events, want) {
		t.Fatalf("parsed:\n%+v\nwant:\n%+v", events, want)
	}
	for _, bad := range []string{
		"X_POSIX\t0\twrite\t0\t0\t1024\t0.1\n",         // 7 fields
		"X_POSIX\tzero\twrite\t0\t0\t1024\t0.1\t0.2\n", // bad rank
		"X_POSIX\t0\tstat\t0\t0\t1024\t0.1\t0.2\n",     // bad op
		"X_POSIX\t0\twrite\t0\t0\t1024\t0.2\t0.1\n",    // ends before start
		"X_POSIX\t0\twrite\t0\t0\tmany\t0.1\t0.2\n",    // bad length
	} {
		if _, err := ParseDXT(strings.NewReader(bad), "t"); err == nil {
			t.Fatalf("accepted malformed dxt line %q", bad)
		}
	}
}

// TestEventsFromSpans: compute spans carry no I/O and are dropped.
func TestEventsFromSpans(t *testing.T) {
	spans := []Span{
		{Kind: Compute, Rank: 0, Start: 0, End: sim.Time(time.Second)},
		{Kind: Write, Rank: 1, Start: sim.Time(time.Second), End: sim.Time(2 * time.Second), Bytes: 42},
	}
	events := EventsFromSpans(spans, "")
	if len(events) != 1 || events[0].Op != OpWrite || events[0].Bytes != 42 || events[0].Tenant != DefaultHPCTenant {
		t.Fatalf("events %+v", events)
	}
}

// TestDetectFormat and the trace-level accessors.
func TestTraceHelpers(t *testing.T) {
	for name, want := range map[string]Format{
		"a.csv": CSV, "b.jsonl": JSONL, "c.ndjson": JSONL,
		"d.json": Chrome, "e.dxt": DXT, "f.darshan": DXT, "g.log": CSV,
	} {
		if got := DetectFormat(name); got != want {
			t.Fatalf("DetectFormat(%q) = %v, want %v", name, got, want)
		}
	}
	withLat := ev(0, "b", OpRead, 1)
	withLat.Latency = 2 * time.Second
	tr, err := Normalize([]Event{withLat, ev(time.Second, "a", OpRead, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Duration(); got != 2*time.Second {
		t.Fatalf("Duration %v, want last recorded completion 2s", got)
	}
	if tr.HasLatencies() {
		t.Fatal("HasLatencies true with an unmeasured event")
	}
	if got := tr.TenantNames(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("TenantNames %v", got)
	}
}
