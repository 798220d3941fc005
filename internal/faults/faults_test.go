package faults

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"storagesim/internal/sim"
)

// fakeTarget records the calls delivered to it.
type fakeTarget struct {
	servers int
	calls   []string
}

func (f *fakeTarget) FaultServers() int        { return f.servers }
func (f *fakeTarget) FailServer(i int)         { f.calls = append(f.calls, "fail", itoa(i)) }
func (f *fakeTarget) RecoverServer(i int)      { f.calls = append(f.calls, "recover", itoa(i)) }
func (f *fakeTarget) SetLinkHealth(v float64)  { f.calls = append(f.calls, "link", ftoa(v)) }
func (f *fakeTarget) SetMediaHealth(v float64) { f.calls = append(f.calls, "media", ftoa(v)) }

// fakeUnitTarget adds redundancy units to fakeTarget.
type fakeUnitTarget struct {
	fakeTarget
	units int
}

func (f *fakeUnitTarget) FaultUnits() int   { return f.units }
func (f *fakeUnitTarget) FailUnit(i int)    { f.calls = append(f.calls, "unit-fail", itoa(i)) }
func (f *fakeUnitTarget) RecoverUnit(i int) { f.calls = append(f.calls, "unit-recover", itoa(i)) }

func itoa(i int) string     { return string(rune('0' + i)) }
func ftoa(v float64) string { return string(rune('0' + int(v*10))) }

func TestParseSchedule(t *testing.T) {
	data := []byte(`{"events": [
		{"at": "10ms", "kind": "server-fail", "target": "vast", "index": 0},
		{"at": "40ms", "kind": "server-recover", "target": "vast", "index": 0},
		{"at": "5ms", "kind": "link-derate", "factor": 0.5},
		{"at": "1.5", "kind": "media-derate", "factor": 0.8},
		{"at": "2s", "kind": "link-restore"},
		{"at": "20ms", "kind": "unit-fail", "target": "vast", "index": 1},
		{"at": "80ms", "kind": "unit-recover", "target": "vast", "index": 1}
	]}`)
	s, err := ParseSchedule(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Events) != 7 {
		t.Fatalf("parsed %d events, want 7", len(s.Events))
	}
	if s.Events[5].Kind != UnitFail || s.Events[5].Index != 1 {
		t.Fatalf("unit-fail parsed wrong: %+v", s.Events[5])
	}
	if s.Events[0].At != sim.Duration(10*time.Millisecond) || s.Events[0].Index != 0 {
		t.Fatalf("event 0 parsed wrong: %+v", s.Events[0])
	}
	// Bare numbers are seconds.
	if s.Events[3].At != sim.Duration(1500*time.Millisecond) {
		t.Fatalf("bare-seconds offset parsed as %v", s.Events[3].At)
	}
}

func TestParseScheduleRejects(t *testing.T) {
	cases := map[string]string{
		"unknown kind":      `{"events":[{"at":"1s","kind":"server-melt","index":0}]}`,
		"missing index":     `{"events":[{"at":"1s","kind":"server-fail"}]}`,
		"factor on fail":    `{"events":[{"at":"1s","kind":"server-fail","index":0,"factor":0.5}]}`,
		"missing factor":    `{"events":[{"at":"1s","kind":"link-derate"}]}`,
		"index on derate":   `{"events":[{"at":"1s","kind":"link-derate","factor":0.5,"index":1}]}`,
		"args on restore":   `{"events":[{"at":"1s","kind":"link-restore","factor":1}]}`,
		"factor above one":  `{"events":[{"at":"1s","kind":"media-derate","factor":1.5}]}`,
		"negative offset":   `{"events":[{"at":"-1s","kind":"link-restore"}]}`,
		"unknown field":     `{"events":[{"at":"1s","kind":"server-fail","indx":0}]}`,
		"trailing document": `{"events":[]}{"events":[]}`,
		"bad duration":      `{"events":[{"at":"soon","kind":"link-restore"}]}`,
		"nan duration":      `{"events":[{"at":"NaN","kind":"link-restore"}]}`,
		"unit-fail no idx":  `{"events":[{"at":"1s","kind":"unit-fail"}]}`,
		"factor on unit":    `{"events":[{"at":"1s","kind":"unit-recover","index":0,"factor":0.5}]}`,
	}
	for name, data := range cases {
		if _, err := ParseSchedule([]byte(data)); err == nil {
			t.Errorf("%s: accepted %s", name, data)
		}
	}
}

func TestScheduleMarshalRoundTrip(t *testing.T) {
	s := Schedule{Events: []Event{
		{At: sim.Duration(10 * time.Millisecond), Kind: ServerFail, Target: "vast", Index: 2},
		{At: sim.Duration(time.Second), Kind: LinkDerate, Factor: 0.25},
		{At: sim.Duration(2 * time.Second), Kind: MediaRestore},
		{At: sim.Duration(3 * time.Second), Kind: UnitFail, Target: "vast", Index: 1},
		{At: sim.Duration(4 * time.Second), Kind: UnitRecover, Target: "vast", Index: 1},
	}}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseSchedule(data)
	if err != nil {
		t.Fatalf("round trip rejected %s: %v", data, err)
	}
	if len(back.Events) != len(s.Events) {
		t.Fatalf("round trip lost events: %s", data)
	}
	for i := range s.Events {
		if back.Events[i].At != s.Events[i].At || back.Events[i].Kind != s.Events[i].Kind ||
			back.Events[i].Target != s.Events[i].Target || back.Events[i].Factor != s.Events[i].Factor {
			t.Fatalf("event %d changed: %+v -> %+v", i, s.Events[i], back.Events[i])
		}
		if s.Events[i].Kind.needsIndex() && back.Events[i].Index != s.Events[i].Index {
			t.Fatalf("event %d index changed", i)
		}
	}
}

func TestInjectorDeliversInOrder(t *testing.T) {
	env := sim.NewEnv()
	tgt := &fakeTarget{servers: 4}
	inj := NewInjector(env)
	inj.Register("fs", tgt)
	// Deliberately unsorted; same-instant events must keep schedule order.
	sched := Schedule{Events: []Event{
		{At: sim.Duration(20 * time.Millisecond), Kind: ServerRecover, Index: 1},
		{At: sim.Duration(10 * time.Millisecond), Kind: ServerFail, Index: 1},
		{At: sim.Duration(20 * time.Millisecond), Kind: LinkDerate, Factor: 0.5},
		{At: sim.Duration(30 * time.Millisecond), Kind: MediaDerate, Factor: 0.9},
	}}
	if err := inj.Apply(sched); err != nil {
		t.Fatal(err)
	}
	env.Run()
	want := []string{"fail", "1", "recover", "1", "link", "5", "media", "9"}
	if got := strings.Join(tgt.calls, ","); got != strings.Join(want, ",") {
		t.Fatalf("delivery order %v, want %v", tgt.calls, want)
	}
	applied := inj.Applied()
	if len(applied) != 4 {
		t.Fatalf("recorded %d applied events, want 4", len(applied))
	}
	if applied[0].At != sim.Time(sim.Duration(10*time.Millisecond)) {
		t.Fatalf("first delivery at %v", applied[0].At)
	}
}

func TestInjectorValidation(t *testing.T) {
	env := sim.NewEnv()
	inj := NewInjector(env)
	inj.Register("a", &fakeTarget{servers: 2})
	inj.Register("b", &fakeTarget{servers: 2})

	// Ambiguous empty target with two registrations.
	err := inj.Apply(Schedule{Events: []Event{{Kind: LinkRestore}}})
	if err == nil || !strings.Contains(err.Error(), "names no target") {
		t.Fatalf("ambiguous target accepted: %v", err)
	}
	// Unknown target.
	err = inj.Apply(Schedule{Events: []Event{{Kind: LinkRestore, Target: "c"}}})
	if err == nil || !strings.Contains(err.Error(), "unknown target") {
		t.Fatalf("unknown target accepted: %v", err)
	}
	// Index out of range, checked against the registry up front.
	err = inj.Apply(Schedule{Events: []Event{{Kind: ServerFail, Target: "a", Index: 2}}})
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("out-of-range index accepted: %v", err)
	}
	// A unit index on a target whose units are its servers is a server
	// index.
	err = inj.Apply(Schedule{Events: []Event{{Kind: UnitFail, Target: "a", Index: 2}}})
	if err == nil || !strings.Contains(err.Error(), "2 units") {
		t.Fatalf("out-of-range unit index on a unitless target accepted: %v", err)
	}
	// Unit index validated against FaultUnits, not FaultServers.
	inj.Register("u", &fakeUnitTarget{fakeTarget: fakeTarget{servers: 9}, units: 3})
	err = inj.Apply(Schedule{Events: []Event{{Kind: UnitFail, Target: "u", Index: 3}}})
	if err == nil || !strings.Contains(err.Error(), "3 units") {
		t.Fatalf("out-of-range unit index accepted: %v", err)
	}
	// Nothing may have been armed by the failed applies.
	if n := env.Pending(); n != 0 {
		t.Fatalf("failed Apply armed %d events", n)
	}
}

func TestInjectorDeliversUnitEvents(t *testing.T) {
	sched := Schedule{Events: []Event{
		{At: sim.Duration(10 * time.Millisecond), Kind: UnitFail, Index: 3},
		{At: sim.Duration(20 * time.Millisecond), Kind: UnitRecover, Index: 3},
	}}
	// A target with units of its own takes unit events; on one without,
	// the units are the servers and the events reach them.
	for _, tc := range []struct {
		tgt  Target
		want string
	}{
		{&fakeUnitTarget{fakeTarget: fakeTarget{servers: 2}, units: 4}, "unit-fail,3,unit-recover,3"},
		{&fakeUnitTarget{fakeTarget: fakeTarget{servers: 4}}, "fail,3,recover,3"},
		{&fakeTarget{servers: 4}, "fail,3,recover,3"},
	} {
		env := sim.NewEnv()
		inj := NewInjector(env)
		inj.Register("fs", tc.tgt)
		if err := inj.Apply(sched); err != nil {
			t.Fatal(err)
		}
		env.Run()
		var calls []string
		switch tgt := tc.tgt.(type) {
		case *fakeUnitTarget:
			calls = tgt.calls
		case *fakeTarget:
			calls = tgt.calls
		}
		if got := strings.Join(calls, ","); got != tc.want {
			t.Errorf("%T with %d units: delivered %s, want %s", tc.tgt, UnitCount(tc.tgt), got, tc.want)
		}
	}
}

// TestApplyRejectsFailingLastHealthy pins the walk Apply makes over each
// target's fail and recover events: the first event that leaves a server
// or unit pool with nothing healthy is rejected, naming it, and nothing is
// armed.
func TestApplyRejectsFailingLastHealthy(t *testing.T) {
	ms := func(n int) sim.Duration { return sim.Duration(n) * sim.Duration(time.Millisecond) }
	ev := func(at int, kind Kind, target string, index int) Event {
		return Event{At: ms(at), Kind: kind, Target: target, Index: index}
	}
	cases := []struct {
		name   string
		events []Event
		reject string // "" accepts
	}{
		{"every server at one instant", []Event{ev(1, ServerFail, "s", 0), ev(1, ServerFail, "s", 1)},
			"event 1: 1ms server-fail target=s index=1 fails the last healthy server"},
		{"firing order, not schedule order", []Event{ev(2, ServerFail, "s", 1), ev(1, ServerFail, "s", 0)},
			"event 1: 2ms server-fail target=s index=1"},
		{"a recover counts at once", []Event{ev(1, ServerFail, "s", 0), ev(1, ServerRecover, "s", 0), ev(1, ServerFail, "s", 1)}, ""},
		{"a failed server fails once", []Event{ev(1, ServerFail, "s", 0), ev(2, ServerFail, "s", 0)}, ""},
		{"units that are servers share the pool", []Event{ev(1, UnitFail, "s", 0), ev(2, ServerFail, "s", 1)},
			"event 1: 2ms server-fail target=s index=1 fails the last healthy server"},
		{"own units are a pool apart", []Event{ev(1, UnitFail, "u", 0), ev(1, ServerFail, "u", 0), ev(2, UnitFail, "u", 1)},
			"event 2: 2ms unit-fail target=u index=1 fails the last healthy unit"},
		{"targets are apart", []Event{ev(1, ServerFail, "s", 0), ev(1, ServerFail, "u", 1)}, ""},
	}
	for _, tc := range cases {
		env := sim.NewEnv()
		inj := NewInjector(env)
		inj.Register("s", &fakeTarget{servers: 2})
		inj.Register("u", &fakeUnitTarget{fakeTarget: fakeTarget{servers: 2}, units: 2})
		err := inj.Apply(Schedule{Events: tc.events})
		switch {
		case tc.reject == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.reject != "" && (err == nil || !strings.Contains(err.Error(), tc.reject)):
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.reject)
		case tc.reject != "" && env.Pending() != 0:
			t.Errorf("%s: rejected Apply armed %d events", tc.name, env.Pending())
		}
	}
}

func TestInjectorSingleTargetDefault(t *testing.T) {
	env := sim.NewEnv()
	tgt := &fakeTarget{servers: 1}
	inj := NewInjector(env)
	inj.Register("only", tgt)
	if err := inj.Apply(Schedule{Events: []Event{{Kind: MediaDerate, Factor: 0.5}}}); err != nil {
		t.Fatal(err)
	}
	env.Run()
	if len(tgt.calls) != 2 || tgt.calls[0] != "media" {
		t.Fatalf("default target not used: %v", tgt.calls)
	}
}

func TestInjectorOffsetsFromApplyInstant(t *testing.T) {
	// Events fire at injection-time-plus-offset, not at absolute time.
	env := sim.NewEnv()
	tgt := &fakeTarget{servers: 2}
	inj := NewInjector(env)
	inj.Register("fs", tgt)
	env.After(sim.Duration(50*time.Millisecond), func() {
		if err := inj.Apply(Schedule{Events: []Event{
			{At: sim.Duration(10 * time.Millisecond), Kind: ServerFail, Index: 0},
		}}); err != nil {
			t.Error(err)
		}
	})
	env.Run()
	if len(inj.Applied()) != 1 {
		t.Fatal("event not delivered")
	}
	if got := inj.Applied()[0].At; got != sim.Time(sim.Duration(60*time.Millisecond)) {
		t.Fatalf("delivered at %v, want 60ms", got)
	}
}
