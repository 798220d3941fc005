// Package repair models redundancy and self-healing on top of the fault
// engine (internal/faults). PR 2 made failure an instantaneous capacity
// dip with a free, instantaneous recovery; real deployments pay for
// resilience twice — degraded service while data is unprotected, and
// rebuild traffic that contends with foreground I/O until redundancy is
// restored. This package closes that gap.
//
// Each backend declares a Scheme — VAST protects with wide-stripe erasure
// codes across DBox enclosures (Section III-A: a stripe survives the loss
// of whole enclosures, at the cost of decode reads while degraded), GPFS
// with declustered GPFS-RAID, Lustre with RAID behind each OSS, while
// UnifyFS and node-local NVMe have none: node loss is data loss. The
// protection granularity is the *unit* (faults.UnitTarget): a DBox, an NSD
// server's array, an OSS's OSTs, a node's SSD. Only VAST has units of its
// own; on every other backend the units are the servers
// (faults.UnitsAreServers), so a server failure is a unit failure.
//
// A Manager wraps a backend's Protected implementation and intercepts the
// fault stream. When a unit fails within the scheme's tolerance, the
// Manager spawns a deterministic background rebuild job: the unit's live
// bytes are reconstructed in fixed-size chunks, each chunk a real flow
// through the fabric solver over the backend's repair path — so rebuild
// traffic genuinely contends with foreground benchmarks — and after each
// chunk the backend's effective health steps up by the rebuilt fraction.
// Health therefore recovers incrementally as the rebuild progresses; a
// recovery event while a rebuild is running does not snap capacity back.
// When concurrent failures exceed the tolerance, the newly failed unit's
// bytes are reported as lost instead of rebuilt: the run completes and
// says so, never hangs and never reports a silent clean result.
package repair

import (
	"fmt"

	"storagesim/internal/faults"
	"storagesim/internal/sim"
)

// SchemeKind names a redundancy mechanism.
type SchemeKind string

// The scheme vocabulary of the paper's deployments.
const (
	// None: no cross-unit redundancy; a unit failure loses its bytes
	// (UnifyFS, node-local NVMe).
	None SchemeKind = "none"
	// ErasureCode: wide-stripe erasure coding across units with
	// locally-decodable reads (VAST across DBoxes).
	ErasureCode SchemeKind = "erasure-code"
	// DeclusteredRAID: parity declustered over the whole pool, rebuilt by
	// every surviving unit in parallel (GPFS-RAID, OST RAID).
	DeclusteredRAID SchemeKind = "declustered-raid"
)

// Scheme declares how a backend protects its data.
type Scheme struct {
	// Kind selects the mechanism.
	Kind SchemeKind
	// Tolerance is how many concurrent unit losses the scheme survives
	// (erasure parity count, RAID parity strips). A failure arriving while
	// Tolerance units are already failed loses data. 0 for None.
	Tolerance int
}

// String renders the scheme for reports.
func (s Scheme) String() string {
	if s.Kind == None {
		return string(None)
	}
	return fmt.Sprintf("%s(tolerance=%d)", s.Kind, s.Tolerance)
}

// QoS is the rebuild-rate knob: how aggressively repair traffic competes
// with foreground I/O.
type QoS struct {
	// RateBps caps each rebuild flow's rate; 0 is uncapped (the flow takes
	// its fair share of the repair path).
	RateBps float64
	// Chunks is the number of equal transfers a rebuild is split into; the
	// backend's health steps up after each one. 0 uses DefaultChunks.
	Chunks int
	// MinBytes floors the rebuild size: even a nearly-empty unit pays for
	// the metadata scan and full-stripe verification a real rebuild
	// performs. 0 means no floor.
	MinBytes float64
}

// DefaultChunks is the rebuild granularity when QoS.Chunks is 0: fine
// enough that health recovery looks incremental, coarse enough that the
// solver is not re-run thousands of times per rebuild.
const DefaultChunks = 16

func (q QoS) chunks() int {
	if q.Chunks > 0 {
		return q.Chunks
	}
	return DefaultChunks
}

// Throttled is a background-priority rebuild: repair trickles at a capped
// rate, foreground I/O keeps most of the bandwidth, redundancy takes
// longer to restore.
func Throttled(rateBps float64) QoS { return QoS{RateBps: rateBps} }

// Aggressive is a restore-redundancy-first rebuild: uncapped repair flows
// take their full fair share of the path.
func Aggressive() QoS { return QoS{} }

// Protected is a backend that can be wrapped by a Manager: the fault
// surface plus the hooks a rebuild job needs. All five backend Systems
// implement it; their fault surface, faults.Units, provides SetUnitRebuild.
type Protected interface {
	faults.UnitTarget
	// RepairScheme declares the backend's redundancy scheme.
	RepairScheme() Scheme
	// SetUnitRebuild counts failed unit i as fraction frac rebuilt when
	// deriving pooled capacity (0 = just failed, 1 = fully rebuilt). Only
	// meaningful while the unit is failed; RecoverUnit/FailUnit reset it.
	SetUnitRebuild(i int, frac float64)
	// UnitBytes returns the live bytes homed on unit i — what a rebuild
	// must reconstruct, or what a beyond-tolerance failure loses.
	UnitBytes(i int) float64
	// RepairPath returns the pipes a rebuild flow for unit i crosses
	// (surviving media read + write, fabric hops). Nil when the scheme is
	// None.
	RepairPath(i int) []*sim.Pipe
}

// Loss records one beyond-tolerance failure.
type Loss struct {
	// Unit is the failed unit's index.
	Unit int
	// Bytes is the live data lost with it.
	Bytes float64
	// At is the virtual time of the failure.
	At sim.Time
}

// Job records one completed or running rebuild for reports.
type Job struct {
	// Unit is the unit being rebuilt.
	Unit int
	// Bytes is the rebuild size (live bytes at failure time, floored by
	// QoS.MinBytes).
	Bytes float64
	// Start and End bound the rebuild in virtual time; End is zero while
	// the job is still running.
	Start, End sim.Time
}

// Manager wraps a Protected backend, turning the instantaneous
// fail/recover semantics of the raw fault surface into rebuild-based
// self-healing. Register the Manager with the fault injector in place of
// the raw backend.
type Manager struct {
	// Protected is the wrapped backend, whose fault surface the Manager
	// presents; it intercepts the fail and recover events.
	Protected
	env  *sim.Env
	fab  *sim.Fabric
	qos  QoS
	name string

	// serverUnits caches faults.UnitsAreServers for the backend: a server
	// event is then the unit event of the same index.
	serverUnits bool
	units       []unitState
	// losses and jobs are append-only logs in event order.
	losses []Loss
	jobs   []Job

	lostBytes    float64
	rebuiltBytes float64
}

type unitState struct {
	// failed: the unit's data is currently unprotected (rebuilding or
	// lost). Cleared when a rebuild completes or a lost unit physically
	// recovers.
	failed bool
	// rebuilding: a rebuild job is in flight for the unit.
	rebuilding bool
	// lost: the unit failed beyond tolerance; its bytes are counted in
	// lostBytes and no rebuild runs.
	lost bool
	// job indexes the unit's latest entry in Manager.jobs, -1 if none.
	job int
}

// NewManager wraps p. The fabric must be the one the backend's pipes live
// on (rebuild flows are scheduled through it).
func NewManager(env *sim.Env, fab *sim.Fabric, p Protected, qos QoS) *Manager {
	m := &Manager{Protected: p, env: env, fab: fab, qos: qos,
		name: fmt.Sprintf("repair(%s)", p.RepairScheme()), serverUnits: faults.UnitsAreServers(p)}
	m.units = make([]unitState, faults.UnitCount(p))
	for i := range m.units {
		m.units[i].job = -1
	}
	return m
}

// LostBytes returns the data lost to beyond-tolerance failures so far.
func (m *Manager) LostBytes() float64 { return m.lostBytes }

// RebuiltBytes returns the data reconstructed by completed rebuilds.
func (m *Manager) RebuiltBytes() float64 { return m.rebuiltBytes }

// Losses returns the beyond-tolerance failures in event order.
func (m *Manager) Losses() []Loss { return append([]Loss(nil), m.losses...) }

// Jobs returns the rebuild jobs started so far, in start order.
func (m *Manager) Jobs() []Job { return append([]Job(nil), m.jobs...) }

// unprotected counts units whose data currently lacks full redundancy —
// the load against the scheme's tolerance.
func (m *Manager) unprotected() int {
	n := 0
	for i := range m.units {
		if m.units[i].failed {
			n++
		}
	}
	return n
}

// unitFailed handles a redundancy unit going down: start a rebuild when
// the scheme still tolerates the loss, otherwise record the unit's bytes
// as lost.
func (m *Manager) unitFailed(i int) {
	st := &m.units[i]
	if st.failed {
		return
	}
	st.failed = true
	sch := m.RepairScheme()
	if sch.Kind == None || m.unprotected() > sch.Tolerance {
		st.lost = true
		bytes := m.UnitBytes(i)
		m.lostBytes += bytes
		m.losses = append(m.losses, Loss{Unit: i, Bytes: bytes, At: m.env.Now()})
		return
	}
	m.startRebuild(i)
}

// startRebuild spawns the background rebuild job for unit i: the unit's
// live bytes (snapshotted now — data written later lands on the restored
// redundancy) move in qos.chunks() equal transfers over the backend's
// repair path, stepping the unit's rebuilt fraction after each chunk. On
// completion the unit recovers to exact nominal — the reconstruction
// landed on spare capacity, so the pool is fully protected again even if
// the physical enclosure is still away.
func (m *Manager) startRebuild(i int) {
	st := &m.units[i]
	st.rebuilding = true
	bytes := m.UnitBytes(i)
	if bytes < m.qos.MinBytes {
		bytes = m.qos.MinBytes
	}
	st.job = len(m.jobs)
	m.jobs = append(m.jobs, Job{Unit: i, Bytes: bytes, Start: m.env.Now()})
	job := st.job
	path := m.RepairPath(i)
	m.env.Go(fmt.Sprintf("%s/rebuild-unit%d", m.name, i), func(p *sim.Proc) {
		chunks := m.qos.chunks()
		per := bytes / float64(chunks)
		for k := 1; k <= chunks; k++ {
			if per > 0 && len(path) > 0 {
				m.fab.Transfer(p, path, per, m.qos.RateBps)
			}
			if k < chunks && m.units[i].rebuilding {
				m.SetUnitRebuild(i, float64(k)/float64(chunks))
			}
		}
		m.finishRebuild(i, job, bytes)
	})
}

// finishRebuild marks unit i fully reconstructed and restores it to exact
// nominal through the backend's RecoverUnit.
func (m *Manager) finishRebuild(i, job int, bytes float64) {
	st := &m.units[i]
	if !st.rebuilding {
		return // physically recovered mid-rebuild; already restored
	}
	st.rebuilding = false
	st.failed = false
	st.job = -1
	m.rebuiltBytes += bytes
	m.jobs[job].End = m.env.Now()
	m.Protected.RecoverUnit(i)
}

// CheckComplete is the rebuild-completes-or-reports-loss invariant: after
// a run, every unit that ever failed is either fully reconstructed,
// physically recovered, or accounted for as a loss. Register it as a final
// check with an invariants.Checker.
func (m *Manager) CheckComplete() error {
	for i := range m.units {
		st := &m.units[i]
		if st.rebuilding {
			return fmt.Errorf("repair: unit %d rebuild still in flight at end of run", i)
		}
		if st.failed && !st.lost {
			return fmt.Errorf("repair: unit %d failed but neither rebuilt nor reported lost", i)
		}
	}
	return nil
}

// --- the intercepted fault events ---

// FailServer implements faults.Target: the server goes down immediately,
// and when the backend's units are its servers the unit failure is
// processed too — rebuild or loss. Servers added to a node-local backend
// after the Manager was built hold no tracked unit.
func (m *Manager) FailServer(i int) {
	m.Protected.FailServer(i)
	if m.serverUnits && i < len(m.units) {
		m.unitFailed(i)
	}
}

// RecoverServer implements faults.Target: the unit recovery of the same
// index when the backend's units are its servers, otherwise an instant
// physical restore (a stateless server never degraded any data).
func (m *Manager) RecoverServer(i int) {
	if m.serverUnits && i < len(m.units) {
		m.RecoverUnit(i)
		return
	}
	m.Protected.RecoverServer(i)
}

// FailUnit implements faults.UnitTarget: the backend loses the unit's
// capacity, then the Manager processes the redundancy consequence
// (rebuild or loss).
func (m *Manager) FailUnit(i int) {
	m.Protected.FailUnit(i)
	m.unitFailed(i)
}

// RecoverUnit implements faults.UnitTarget. A recovery while the unit's
// rebuild is running does NOT snap capacity back: the reconstruction is
// what restores redundancy, incrementally, and keeps running to
// completion. Real systems fold the returning unit into the
// reconstruction rather than trusting its stale contents. Lost or
// never-degraded units restore instantly: capacity returns, but lost
// bytes stay lost (the accounting is of the exposure, not the hardware).
func (m *Manager) RecoverUnit(i int) {
	st := &m.units[i]
	if st.rebuilding {
		return
	}
	st.failed = false
	m.Protected.RecoverUnit(i)
}

// HoldsRecovery implements faults.RecoveryHolder: RecoverUnit leaves a
// unit failed while its rebuild runs, so the injector's schedule walk
// counts no unit recover on a Manager.
func (m *Manager) HoldsRecovery() bool { return true }

// Interface checks: a Manager substitutes for its backend at the injector,
// and tells it that it holds recoveries back.
var (
	_ faults.UnitTarget     = (*Manager)(nil)
	_ faults.RecoveryHolder = (*Manager)(nil)
)
