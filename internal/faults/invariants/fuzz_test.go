package invariants_test

import (
	"testing"
	"time"

	"storagesim/internal/faults"
	"storagesim/internal/faults/invariants"
	"storagesim/internal/repair"
	"storagesim/internal/sim"
)

// Fault-surface fuzz records are four bytes: op, index, factor, tick. op
// picks one of the eight schedule kinds or a rebuild-fraction step; index
// addresses a server or unit (one past the last is out of range, which
// Apply rejects); factor/255 is the derate or rebuilt fraction; the event
// fires tick×100µs after the schedule is armed.
const (
	opRebuild = 8
	maxOps    = 64
)

var fuzzKinds = [...]faults.Kind{
	faults.ServerFail, faults.ServerRecover, faults.UnitFail, faults.UnitRecover,
	faults.LinkDerate, faults.LinkRestore, faults.MediaDerate, faults.MediaRestore,
}

// FuzzFaultSurface drives one backend of cases() through a decoded
// schedule of server and unit fail/recover, link and media derate/restore
// and rebuild-fraction events with the invariant checker attached. Inputs
// that Injector.Apply rejects are skipped: every accepted schedule must run
// without a panic and without a violation, and once everything is
// recovered and restored every pipe must equal its state before the first
// fault.
func FuzzFaultSurface(f *testing.F) {
	rec := func(op, index, factor, tick byte) []byte { return []byte{op, index, factor, tick} }
	join := func(recs ...[]byte) []byte {
		var out []byte
		for _, r := range recs {
			out = append(out, r...)
		}
		return out
	}
	for b := range cases() {
		// TestUnitFaultSurface's round trip: unit 0 fails, is half rebuilt
		// and recovers.
		f.Add(uint8(b), join(rec(2, 0, 0, 10), rec(opRebuild, 0, 128, 20), rec(3, 0, 0, 30)))
		// Its no-op edge cases: recover, rebuild and address healthy or
		// absent servers and units, fail a failed one twice.
		f.Add(uint8(b), join(rec(1, 1, 0, 1), rec(3, 1, 0, 1), rec(opRebuild, 1, 128, 1),
			rec(0, 0, 0, 2), rec(0, 0, 0, 3), rec(2, 0, 0, 4), rec(2, 0, 0, 5)))
		// Fail every server, then every unit, in index order: Apply rejects
		// the last of each, as the backend would panic on it.
		var servers, units [][]byte
		for i := byte(0); i < 4; i++ {
			servers = append(servers, rec(0, i, 0, 10+i))
			units = append(units, rec(2, i, 0, 10+i))
		}
		f.Add(uint8(b), join(servers...))
		f.Add(uint8(b), join(units...))
		// TestNoOpFaultPairs' same-instant fail, derate, restore, recover.
		f.Add(uint8(b), join(rec(0, 0, 0, 30), rec(4, 0, 64, 30), rec(6, 0, 128, 30),
			rec(7, 0, 0, 30), rec(5, 0, 0, 30), rec(1, 0, 0, 30)))
	}
	f.Fuzz(func(t *testing.T, backend uint8, data []byte) {
		all := cases()
		bc := all[int(backend)%len(all)]
		env := sim.NewEnv()
		fab := sim.NewFabric(env)
		tgt, _ := bc.build(env, fab)
		prot := tgt.(repair.Protected)
		servers, units := prot.FaultServers(), faults.UnitCount(prot)
		before := invariants.Snapshot(fab)

		var sched faults.Schedule
		type rebuild struct {
			at   sim.Time
			unit int
			frac float64
		}
		var rebuilds []rebuild
		for n := 0; len(data) >= 4 && n < maxOps; n++ {
			op, index, factor := int(data[0]%9), int(data[1]), float64(data[2])/255
			at := sim.Duration(data[3]) * sim.Duration(100*time.Microsecond)
			data = data[4:]
			if op == opRebuild {
				rebuilds = append(rebuilds, rebuild{sim.Time(at), index % (units + 1), factor})
				continue
			}
			ev := faults.Event{At: at, Kind: fuzzKinds[op], Factor: factor}
			switch ev.Kind {
			case faults.ServerFail, faults.ServerRecover:
				ev.Index = index % (servers + 1)
			case faults.UnitFail, faults.UnitRecover:
				ev.Index = index % (units + 1)
			}
			sched.Events = append(sched.Events, ev)
		}
		inj := faults.NewInjector(env)
		inj.Register(bc.name, prot)
		if err := inj.Apply(sched); err != nil {
			return
		}
		for _, rb := range rebuilds {
			rb := rb
			env.Schedule(rb.at, func() { prot.SetUnitRebuild(rb.unit, rb.frac) })
		}
		chk := invariants.Attach(env, fab, 250*time.Microsecond)
		env.Run()
		for i := 0; i < servers; i++ {
			prot.RecoverServer(i)
		}
		for i := 0; i < prot.FaultUnits(); i++ {
			prot.RecoverUnit(i)
		}
		prot.SetLinkHealth(1)
		prot.SetMediaHealth(1)
		if err := chk.Err(); err != nil {
			t.Fatalf("%s: %v\nall: %v", bc.name, err, chk.Violations())
		}
		if err := invariants.DiffStates(before, invariants.Snapshot(fab)); err != nil {
			t.Fatalf("%s: recovering and restoring everything left %v", bc.name, err)
		}
	})
}
