package faults

import "fmt"

// Units is a backend's whole fault surface: which of its servers — and of
// its own redundancy units, when it has any — are out of service, how far
// each failed one is rebuilt, and the prevailing link and media derates.
// It implements Target, UnitTarget and the rebuild hook of
// repair.Protected once for every backend (GPFS NSD servers, Lustre OSSes,
// VAST CNodes and DBoxes, node-local NVMe and UnifyFS nodes): a backend
// embeds it and supplies one apply function, which derives every pipe's
// health factor from the state. Each state change calls apply, so the
// capacities always follow the state.
//
// apply may set every pipe on each call: setting a pipe's health factor to
// its current value touches nothing, so only the changed pipes are marked
// for the solver, in the order apply visits them.
type Units struct {
	owner   string // panic text: "<owner>: no <noun> 3"
	servers pool
	// units are the target's own redundancy units; none when its units
	// are its servers (UnitsAreServers).
	units       pool
	link, media float64
	apply       func()
}

// pool is one set of individually failable components.
type pool struct {
	noun    string
	failed  []bool
	rebuilt []float64
	healthy int
}

func newPool(n int, noun string) pool {
	return pool{noun: noun, failed: make([]bool, n), rebuilt: make([]float64, n), healthy: n}
}

// NewUnits returns the fault surface of a target with n healthy servers
// and no units of its own, at full link and media health. owner names the
// deployment ("gpfs gpfs-lassen") and noun one server ("NSD server") in
// panic messages; apply derives the backend's pipe health from the state.
func NewUnits(owner string, n int, noun string, apply func()) Units {
	return Units{owner: owner, servers: newPool(n, noun), link: 1, media: 1, apply: apply}
}

// WithUnits returns u with n healthy redundancy units of its own, each
// called noun (VAST's DBoxes behind its stateless CNodes).
func (u Units) WithUnits(n int, noun string) Units {
	u.units = newPool(n, noun)
	return u
}

// AddServer appends one healthy server (a node-local backend grows one
// per mount) and applies the state to the new server's pipes.
func (u *Units) AddServer() {
	u.servers.failed = append(u.servers.failed, false)
	u.servers.rebuilt = append(u.servers.rebuilt, 0)
	u.servers.healthy++
	u.apply()
}

// unitPool is the pool unit events address: the target's own units, or
// its servers when it has none.
func (u *Units) unitPool() *pool {
	if UnitsAreServers(u) {
		return &u.servers
	}
	return &u.units
}

// changed applies the state when an event changed it.
func (u *Units) changed(c bool) {
	if c {
		u.apply()
	}
}

// --- Target ---

// FaultServers implements Target.
func (u *Units) FaultServers() int { return len(u.servers.failed) }

// FailServer implements Target: takes server i out of service with
// nothing of it rebuilt. Failing a failed server is a no-op; an index out
// of range panics, and so does failing the last healthy server (the
// deployment would be down, which no experiment models; Injector.Apply
// rejects such a schedule).
func (u *Units) FailServer(i int) { u.changed(u.servers.fail(u.owner, i)) }

// RecoverServer implements Target: returns failed server i to service at
// its full share; recovering a healthy or absent server is a no-op.
func (u *Units) RecoverServer(i int) { u.changed(u.servers.recover(i)) }

// SetLinkHealth implements Target: the network links run at fraction f of
// nominal.
func (u *Units) SetLinkHealth(f float64) {
	u.link = f
	u.apply()
}

// SetMediaHealth implements Target: the storage media run at fraction f of
// nominal.
func (u *Units) SetMediaHealth(f float64) {
	u.media = f
	u.apply()
}

// --- UnitTarget and the rebuild hook ---

// FaultUnits implements UnitTarget: the target's own redundancy units, 0
// when its units are its servers.
func (u *Units) FaultUnits() int { return len(u.units.failed) }

// FailUnit implements UnitTarget: takes unit i out of service, with the
// edge cases of FailServer. On a target whose units are its servers it
// fails server i.
func (u *Units) FailUnit(i int) { u.changed(u.unitPool().fail(u.owner, i)) }

// RecoverUnit implements UnitTarget: returns failed unit i to service at
// full nominal capacity; recovering a healthy or absent unit is a no-op.
func (u *Units) RecoverUnit(i int) { u.changed(u.unitPool().recover(i)) }

// SetUnitRebuild counts failed unit i as fraction frac reconstructed (the
// repair.Protected hook); a healthy or absent unit has nothing to rebuild.
func (u *Units) SetUnitRebuild(i int, frac float64) {
	u.changed(u.unitPool().setRebuilt(i, frac))
}

// --- the state apply reads ---

// LinkHealth returns the prevailing link derate.
func (u *Units) LinkHealth() float64 { return u.link }

// MediaHealth returns the prevailing media derate.
func (u *Units) MediaHealth() float64 { return u.media }

// ServerFailed reports whether server i is out of service.
func (u *Units) ServerFailed(i int) bool { return u.servers.failed[i] }

// UnitFailed reports whether unit i is out of service.
func (u *Units) UnitFailed(i int) bool { return u.unitPool().failed[i] }

// HealthyServers returns the number of servers in service.
func (u *Units) HealthyServers() int { return u.servers.healthy }

// HealthyUnits returns the number of units in service.
func (u *Units) HealthyUnits() int { return u.unitPool().healthy }

// ServerFraction is the servers' effective share of the pooled capacity
// (see pool.fraction).
func (u *Units) ServerFraction() float64 { return u.servers.fraction() }

// UnitFraction is the units' effective share of the pooled capacity.
func (u *Units) UnitFraction() float64 { return u.unitPool().fraction() }

// fail takes member i out of service with nothing of it rebuilt and
// reports whether its state changed. An index out of range panics, and so
// does failing the last healthy member: a panic here is an internal bug.
func (p *pool) fail(owner string, i int) bool {
	if i < 0 || i >= len(p.failed) {
		panic(fmt.Sprintf("%s: no %s %d", owner, p.noun, i))
	}
	if p.failed[i] {
		return false
	}
	if p.healthy == 1 {
		panic(fmt.Sprintf("%s: cannot fail the last healthy %s", owner, p.noun))
	}
	p.failed[i] = true
	p.rebuilt[i] = 0
	p.healthy--
	return true
}

// recover returns failed member i to service and reports whether its
// state changed.
func (p *pool) recover(i int) bool {
	if i < 0 || i >= len(p.failed) || !p.failed[i] {
		return false
	}
	p.failed[i] = false
	p.healthy++
	return true
}

// setRebuilt records failed member i's rebuilt fraction and reports
// whether its state changed.
func (p *pool) setRebuilt(i int, frac float64) bool {
	if i < 0 || i >= len(p.failed) || !p.failed[i] {
		return false
	}
	p.rebuilt[i] = frac
	return true
}

// fraction is whole healthy members plus the rebuilt fractions of failed
// ones, over all members. With nothing failed the sum is exactly the
// member count, so fail/recover pairs restore the bit-identical nominal
// fraction 1.
func (p *pool) fraction() float64 {
	sum := float64(p.healthy)
	for i, f := range p.failed {
		if f {
			sum += p.rebuilt[i]
		}
	}
	return sum / float64(len(p.failed))
}
