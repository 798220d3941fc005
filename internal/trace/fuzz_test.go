package trace

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"slices"
	"testing"
)

// The trace parsers sit on the untrusted boundary of the pipeline: they
// eat whatever a recording system produced. Both fuzzers pin the same
// contract as FuzzTenantSpec and FuzzSchedule do for their parsers — no
// panic on any input, and every stream the parser and Normalize both
// accept must survive a write/re-parse/re-normalize round trip event for
// event (the recorder emits through the same writers, so a lossy codec
// would silently corrupt every recorded fixture).

// roundTrip re-encodes an accepted trace and asserts re-ingestion
// reproduces it exactly.
func roundTrip(t *testing.T, tr *Trace,
	write func(io.Writer, []Event) error, parse func([]byte) ([]Event, error)) {
	t.Helper()
	var buf bytes.Buffer
	if err := write(&buf, tr.Events); err != nil {
		t.Fatalf("accepted trace does not encode: %v", err)
	}
	back, err := parse(buf.Bytes())
	if err != nil {
		t.Fatalf("encoded trace does not re-parse: %v\n%s", err, buf.String())
	}
	tr2, err := Normalize(back)
	if err != nil {
		t.Fatalf("re-parsed trace does not re-normalize: %v", err)
	}
	if !reflect.DeepEqual(tr2.Events, tr.Events) {
		t.Fatalf("round trip changed events:\n%+v\nwant:\n%+v", tr2.Events, tr.Events)
	}
}

func FuzzParseTraceCSV(f *testing.F) {
	for _, seed := range []string{
		"ts,tenant,op,bytes,io,latency,rank,file,id\n0,ml,rand-read,1m,128k,12ms,3,/data/f1,r1\n",
		"ts,tenant,op,bytes\n0,a,read,4k\n1.5,a,write,1m\n",
		"ts,tenant,op\n0,m,meta\n",
		"ts,tenant,op,latency\n0.25,A Team,read,5ms\n",        // needs bytes: rejected later
		"ts,tenant,op,bytes\n-1,a,read,4k\n",                  // negative ts: rejected later
		"ts,tenant,op,bytes,id\n0,a,read,1,x\n1,a,read,1,x\n", // dup id
		"ts,tenant,op,nope\n",
		"ts,tenant\n",
		"\"ts\n",
		"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ParseCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		tr, err := Normalize(events)
		if err != nil {
			return
		}
		roundTrip(t, tr, WriteCSV, func(b []byte) ([]Event, error) { return ParseCSV(bytes.NewReader(b)) })
	})
}

// referenceJSONL is ParseJSONL with every line sent through the
// encoding/json decoder: the oracle the scanner is held to.
func referenceJSONL(data []byte) ([]Event, error) {
	var events []Event
	for n, line := range bytes.Split(data, newline) {
		if line = bytes.TrimSpace(line); len(line) == 0 {
			continue
		}
		ev, err := decodeJSONLine(line, n+1)
		if err != nil {
			return nil, err
		}
		events = append(events, ev)
	}
	return events, nil
}

// FuzzParseTraceJSONL also holds ParseJSONL to the reference: the same
// events, or the same error text.
func FuzzParseTraceJSONL(f *testing.F) {
	for _, seed := range []string{
		`{"ts":"1.5s","tenant":"ml","op":"rand-read","bytes":"1m","io":"128k","latency":"12ms","rank":3,"file":"/f","id":"r1"}` + "\n",
		`{"ts":"0","tenant":"a","op":"read","bytes":4096}` + "\n" + `{"ts":"1s","tenant":"a","op":"write","bytes":1}` + "\n",
		`{"ts":"0","tenant":"m","op":"meta"}` + "\n",
		`{"ts":"0","tenant":"a","op":"read","bytes":1,"rank":-1}` + "\n",
		`{"ts":"0","tenant":"a","op":"read","bytes":1,"unknown":true}` + "\n",
		`{"ts":"0","tenant":"a","op":"read","bytes":1}{"ts":"0"}` + "\n",
		`{}`,
		`[]`,
		"not json\n",
		"",
		"{ \"ts\" :\t\"0\" ,\r\"tenant\":\"a\",\"op\":\"read\",\"bytes\": 1 }",
		// One line per reason the scanner hands a line to the reference.
		"{\"ts\":\"0\",\f\"tenant\":\"a\",\"op\":\"read\",\"bytes\":1}",
		`{"tenant":"a","op":"read","bytes":1}`,
		`{"TS":"0","tenant":"a","op":"read","bytes":1}`,
		`{"tſ":"0","tenant":"a","op":"read","bytes":1}`,
		`{"ts":"0","tenant":"a","op":"read","bytes":1,"latency":"1ms","latency":""}`,
		`{"ts":"0","tenant":"a","op":"read","bytes":1,"rank":null}`,
		`{"ts":"0","tenant":"a","op":"read","bytes":null}`,
		`{"ts":"0","ten\u0061nt":"a","op":"read","bytes":1}`,
		`{"ts":"0","tenant":"\u0061","op":"read","bytes":1}`,
		"{\"ts\":\"0\",\"tenant\":\"a\xff\",\"op\":\"read\",\"bytes\":1}",
		"{\"ts\":\"0\",\"tenant\":\"a\tb\",\"op\":\"read\",\"bytes\":1}",
		`{"ts":"0","tenant":"a","op":"read","bytes":1.0}`,
		`{"ts":"0","tenant":"a","op":"read","bytes":1e3}`,
		`{"ts":"0","tenant":"a","op":"read","bytes":1,"rank":01}`,
		`{"ts":"0","tenant":"a","op":"read","bytes":-}`,
		`{"ts":"0","tenant":"a","op":"read","bytes":99999999999999999999}`,
		`{"ts":"0","tenant":"a","op":"read","bytes":"1.5k"}`,
		`{"ts":"0","tenant":"a","op":"read","bytes":1}}`,
		`{"ts":"0","tenant":"a","op":"read","bytes":1}]`,
		`{"ts":"0","tenant":"a","op":"read","bytes":1}]]}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ParseJSONL(bytes.NewReader(data))
		want, wantErr := referenceJSONL(data)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || !slices.Equal(events, want) {
			t.Fatalf("scanner and reference disagree:\n%v\n%+v\nreference:\n%v\n%+v", err, events, wantErr, want)
		}
		if err != nil {
			return
		}
		tr, err := Normalize(events)
		if err != nil {
			return
		}
		roundTrip(t, tr, WriteJSONL, func(b []byte) ([]Event, error) { return ParseJSONL(bytes.NewReader(b)) })
	})
}
