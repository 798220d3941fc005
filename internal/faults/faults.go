// Package faults is the simulator's deterministic fault-injection engine.
//
// The paper's central claim about VAST is architectural: stateless CNodes
// mean "a failure only costs capacity, never data or availability"
// (Section III-A.2). Claims like that are only worth anything if the model
// can exercise them, so this package turns every storage backend into a
// fault target: timed events — server crash and recovery, NIC/link derate
// and restore, SSD wear derate — are delivered through the simulation
// event loop, which keeps any run with a fixed seed and schedule
// byte-reproducible.
//
// A Schedule is a list of events with offsets from injection start. An
// Injector binds a schedule to registered Targets (one per storage
// deployment) and delivers each event at its virtual time. Schedules can
// be built in code or parsed from JSON (see schedule.go), so experiment
// harnesses and the iorbench CLI share one format.
package faults

import (
	"fmt"
	"sort"

	"storagesim/internal/sim"
)

// Kind names a fault event type.
type Kind string

// The event vocabulary. Fail/recover address one server by index; derate
// and restore act on the whole backend's link or media layer.
const (
	// ServerFail takes server Index out of service (CNode, NSD server,
	// OSS, UnifyFS delegator node, local-NVMe node).
	ServerFail Kind = "server-fail"
	// ServerRecover returns a failed server to service.
	ServerRecover Kind = "server-recover"
	// LinkDerate scales the backend's network links to Factor of nominal.
	LinkDerate Kind = "link-derate"
	// LinkRestore returns the links to full health.
	LinkRestore Kind = "link-restore"
	// MediaDerate scales the backend's storage media to Factor of nominal
	// (SSD wear, a rebuilding RAID group).
	MediaDerate Kind = "media-derate"
	// MediaRestore returns the media to full health.
	MediaRestore Kind = "media-restore"
	// UnitFail takes redundancy unit Index out of service: the granularity
	// data protection works at (a VAST DBox enclosure, a GPFS NSD server's
	// RAID array, an OSS's OSTs, a burst-buffer node's SSD). On a target
	// whose units are its servers (UnitsAreServers) it fails server Index.
	UnitFail Kind = "unit-fail"
	// UnitRecover returns a failed redundancy unit to service.
	UnitRecover Kind = "unit-recover"
)

// valid reports whether k is part of the vocabulary.
func (k Kind) valid() bool {
	switch k {
	case ServerFail, ServerRecover, LinkDerate, LinkRestore, MediaDerate, MediaRestore,
		UnitFail, UnitRecover:
		return true
	}
	return false
}

// needsIndex reports whether the kind addresses one server or unit.
func (k Kind) needsIndex() bool {
	return k == ServerFail || k == ServerRecover || k == UnitFail || k == UnitRecover
}

// needsUnits reports whether the kind addresses a redundancy unit.
func (k Kind) needsUnits() bool { return k == UnitFail || k == UnitRecover }

// needsFactor reports whether the kind carries a derate factor.
func (k Kind) needsFactor() bool { return k == LinkDerate || k == MediaDerate }

// Event is one timed fault.
type Event struct {
	// At is the offset from injection start at which the event fires.
	At sim.Duration
	// Kind selects the action.
	Kind Kind
	// Target names the registered backend; empty addresses the only
	// registered target (an error when several are registered).
	Target string
	// Index is the server ordinal for ServerFail/ServerRecover.
	Index int
	// Factor is the health fraction for LinkDerate/MediaDerate: 1 is full
	// capacity, 0 parks the component.
	Factor float64
}

// String renders the event for logs and error messages.
func (ev Event) String() string {
	return fmt.Sprintf("%v %s", ev.At, ev.describe())
}

// describe renders the event without its schedule offset.
func (ev Event) describe() string {
	s := string(ev.Kind)
	if ev.Target != "" {
		s += " target=" + ev.Target
	}
	if ev.Kind.needsIndex() {
		s += fmt.Sprintf(" index=%d", ev.Index)
	}
	if ev.Kind.needsFactor() {
		s += fmt.Sprintf(" factor=%g", ev.Factor)
	}
	return s
}

// Validate reports the first problem with the event in isolation (target
// existence and index range are checked against the registry at Apply).
func (ev Event) Validate() error {
	switch {
	case !ev.Kind.valid():
		return fmt.Errorf("faults: unknown event kind %q", ev.Kind)
	case ev.At < 0:
		return fmt.Errorf("faults: event %q at negative offset %v", ev.Kind, ev.At)
	case ev.Kind.needsIndex() && ev.Index < 0:
		return fmt.Errorf("faults: %s needs a server index", ev.Kind)
	case ev.Kind.needsFactor() && (ev.Factor < 0 || ev.Factor > 1 || ev.Factor != ev.Factor):
		return fmt.Errorf("faults: %s factor %g out of [0,1]", ev.Kind, ev.Factor)
	}
	return nil
}

// Schedule is an ordered list of fault events.
type Schedule struct {
	Events []Event
}

// Validate checks every event in isolation.
func (s Schedule) Validate() error {
	for i, ev := range s.Events {
		if err := ev.Validate(); err != nil {
			return fmt.Errorf("event %d: %w", i, err)
		}
	}
	return nil
}

// Sorted returns a copy with events in firing order. The sort is stable:
// same-instant events keep their schedule order, which together with the
// event loop's sequence numbers makes delivery order deterministic.
func (s Schedule) Sorted() Schedule {
	out := Schedule{Events: append([]Event(nil), s.Events...)}
	sort.SliceStable(out.Events, func(i, j int) bool {
		return out.Events[i].At < out.Events[j].At
	})
	return out
}

// Target is a storage backend that can take faults. Each backend embeds
// Units, which implements it; the experiment harness registers the
// backends with an Injector under the deployment's name.
type Target interface {
	// FaultServers returns how many individually failable servers the
	// backend has (CNodes, NSD servers, OSSes, nodes).
	FaultServers() int
	// FailServer takes server i out of service.
	FailServer(i int)
	// RecoverServer returns a failed server to service; recovering a
	// healthy server is a no-op.
	RecoverServer(i int)
	// SetLinkHealth derates the backend's network links to fraction f of
	// nominal capacity (1 restores, 0 parks).
	SetLinkHealth(f float64)
	// SetMediaHealth derates the backend's storage media to fraction f.
	SetMediaHealth(f float64)
}

// UnitTarget is a Target whose storage is organized into failable
// redundancy units — the granularity data protection works at, which is
// not always the server granularity (a VAST CNode is stateless; the unit
// is the DBox enclosure behind it). internal/repair layers rebuild jobs
// and loss accounting on top of the same interface.
type UnitTarget interface {
	Target
	// FaultUnits returns how many redundancy units of its own the backend
	// has; 0 when its units are its servers (UnitsAreServers).
	FaultUnits() int
	// FailUnit takes unit i out of service (media loss: the enclosure, the
	// RAID array, the node's SSD).
	FailUnit(i int)
	// RecoverUnit returns a failed unit to service at full nominal
	// capacity; recovering a healthy unit is a no-op.
	RecoverUnit(i int)
}

// UnitsAreServers reports whether t's redundancy units are its servers.
// It is the one place that decides: a target with no units of its own —
// no UnitTarget, or one with no FaultUnits — loses a unit with each
// server (a GPFS NSD server's array, an OSS's OSTs, a node's SSD), so a
// unit event on it is the server event of the same index.
func UnitsAreServers(t Target) bool {
	ut, ok := t.(UnitTarget)
	return !ok || ut.FaultUnits() == 0
}

// UnitCount returns how many redundancy units t has: its own, or its
// servers when those are its units.
func UnitCount(t Target) int {
	if UnitsAreServers(t) {
		return t.FaultServers()
	}
	return t.(UnitTarget).FaultUnits()
}

// Applied is one delivered event, recorded for tests and reports.
type Applied struct {
	At    sim.Time
	Event Event
}

// String renders the delivery with its absolute simulation time (the
// event's own At is the schedule-relative offset).
func (a Applied) String() string {
	return fmt.Sprintf("%v %s", a.At, a.Event.describe())
}

// Injector binds schedules to targets on a simulation environment.
type Injector struct {
	env     *sim.Env
	targets map[string]Target
	order   []string // registration order, for deterministic error text
	applied []Applied
}

// NewInjector returns an injector bound to env.
func NewInjector(env *sim.Env) *Injector {
	return &Injector{env: env, targets: map[string]Target{}}
}

// Register adds a named target. Re-registering a name replaces the target
// (fresh testbed per repetition).
func (in *Injector) Register(name string, t Target) {
	if name == "" {
		panic("faults: target name must not be empty")
	}
	if _, ok := in.targets[name]; !ok {
		in.order = append(in.order, name)
	}
	in.targets[name] = t
}

// Applied returns the events delivered so far, in delivery order.
func (in *Injector) Applied() []Applied { return in.applied }

// resolve maps an event's target name to the registered Target.
func (in *Injector) resolve(ev Event) (Target, error) {
	if ev.Target == "" {
		if len(in.order) != 1 {
			return nil, fmt.Errorf("faults: event %q names no target and %d are registered %v",
				ev.Kind, len(in.order), in.order)
		}
		return in.targets[in.order[0]], nil
	}
	t, ok := in.targets[ev.Target]
	if !ok {
		return nil, fmt.Errorf("faults: unknown target %q (registered: %v)", ev.Target, in.order)
	}
	return t, nil
}

// Apply validates the schedule against the registered targets and arms one
// simulation event per fault. It must be called before env.Run; events fire
// at injection-time-plus-offset in (At, schedule order).
//
// Validation is all-or-nothing, so a bad schedule never half-applies. It
// also walks each target's fail and recover events in firing order, from
// a healthy target, and rejects the first that would leave it no healthy
// server or unit: a down deployment is not a data point, and failing the
// last healthy one panics in the backend. A recover counts at once (a
// repair.Manager may hold a recovery back until its rebuild completes),
// and a unit event counts against the server pool of a target whose units
// are its servers.
func (in *Injector) Apply(s Schedule) error {
	if err := s.Validate(); err != nil {
		return err
	}
	sorted := s.Sorted()
	walks := map[Target]*[2]pool{} // each target's servers and own units
	for i, ev := range sorted.Events {
		t, err := in.resolve(ev)
		if err != nil {
			return fmt.Errorf("event %d: %w", i, err)
		}
		if !ev.Kind.needsIndex() {
			continue
		}
		n, noun := t.FaultServers(), "servers"
		if ev.Kind.needsUnits() {
			n, noun = UnitCount(t), "units"
		}
		if ev.Index >= n {
			return fmt.Errorf("event %d: %s index %d out of range (target has %d %s)",
				i, ev.Kind, ev.Index, n, noun)
		}
		w := walks[t]
		if w == nil {
			w = &[2]pool{newPool(t.FaultServers(), "server"), newPool(UnitCount(t), "unit")}
			walks[t] = w
		}
		p := &w[0]
		if ev.Kind.needsUnits() && !UnitsAreServers(t) {
			p = &w[1]
		}
		if ev.Kind == ServerFail || ev.Kind == UnitFail {
			if !p.failed[ev.Index] && p.healthy == 1 {
				return fmt.Errorf("event %d: %v fails the last healthy %s", i, ev, p.noun)
			}
			p.fail("", ev.Index)
		} else {
			p.recover(ev.Index)
		}
	}
	start := in.env.Now()
	for _, ev := range sorted.Events {
		ev := ev
		t, _ := in.resolve(ev)
		in.env.Schedule(start.Add(ev.At), func() {
			in.deliver(t, ev)
		})
	}
	return nil
}

// deliver executes one event against its target and logs it. A unit event
// on a target whose units are its servers is the server event.
func (in *Injector) deliver(t Target, ev Event) {
	switch ev.Kind {
	case ServerFail:
		t.FailServer(ev.Index)
	case ServerRecover:
		t.RecoverServer(ev.Index)
	case LinkDerate:
		t.SetLinkHealth(ev.Factor)
	case LinkRestore:
		t.SetLinkHealth(1)
	case MediaDerate:
		t.SetMediaHealth(ev.Factor)
	case MediaRestore:
		t.SetMediaHealth(1)
	case UnitFail:
		if UnitsAreServers(t) {
			t.FailServer(ev.Index)
		} else {
			t.(UnitTarget).FailUnit(ev.Index)
		}
	case UnitRecover:
		if UnitsAreServers(t) {
			t.RecoverServer(ev.Index)
		} else {
			t.(UnitTarget).RecoverUnit(ev.Index)
		}
	}
	in.applied = append(in.applied, Applied{At: in.env.Now(), Event: ev})
}
