package vast

import (
	"storagesim/internal/device"
	"storagesim/internal/sim"
)

// SCM write staging and background migration (Section III-A.2/4/5): VAST
// acks a write once it is committed to the SCM replicas, then
// asynchronously similarity-reduces and migrates the data to the QLC
// backbone. Under normal load the ack path never touches QLC; under
// sustained ingest beyond the drain rate the staging area fills and
// writers throttle to the migrator — the classic burst-buffer saturation
// behaviour (cf. Lockwood et al., PDSW'21, on benchmarking all-flash
// storage past its staging tier).
//
// The migrator is not a perpetual process: each staged burst starts a
// background QLC flow whose completion releases the staged bytes, so the
// simulation drains naturally once writers stop.

// stager tracks staged-but-unmigrated bytes and applies backpressure.
type stager struct {
	sys      *System
	capacity int64 // staging capacity; 0 disables backpressure
	staged   int64
	migrated int64

	// space fires when a migration completes and frees staging room; it is
	// re-armed after each broadcast.
	space sim.Event
	// free lists the idle migration records.
	free []*migration
}

// migration is one burst's SCM→QLC drain, a pooled record run by two
// calendar continuations: start, filed at the write's instant, waits on
// the flow, and drain books its completion and frees the record. They
// take the sequence numbers a process waiting on the flow would take (its
// start and its wake-up), so the schedule is that process's (MODEL.md
// §11, "Continuations").
type migration struct {
	st      *stager
	bytes   int64
	flow    sim.Flow
	startFn func()
	drainFn func()
}

// newStager returns the staging accountant.
func newStager(s *System) *stager {
	st := &stager{
		sys:      s,
		capacity: s.cfg.SCMStagingBytes,
	}
	st.space.Init(s.env)
	return st
}

// Staged returns the bytes currently staged on SCM awaiting migration.
func (st *stager) Staged() int64 { return st.staged }

// Migrated returns the bytes drained to QLC so far (pre-reduction).
func (st *stager) Migrated() int64 { return st.migrated }

// admit blocks the writer while the staging area is full (backpressure
// precedes the SCM landing) and accounts the incoming bytes, reporting
// whether the write was admitted. The caller starts the drain with migrate
// once the data has landed. A request whose abort token fires while it is
// throttled is refused at the next space broadcast (migrations keep
// draining during faults, so the wait is bounded) and must not migrate.
func (st *stager) admit(p *sim.Proc, bytes int64) bool {
	for st.full(bytes) {
		if p.Aborted() {
			return false
		}
		st.space.Wait(p)
	}
	st.stage(bytes)
	return true
}

// full reports whether a write of bytes must wait for staging room.
func (st *stager) full(bytes int64) bool {
	return bytes > 0 && st.capacity > 0 && st.staged >= st.capacity
}

// stage accounts an admitted write's bytes as staged.
func (st *stager) stage(bytes int64) {
	if bytes > 0 {
		st.staged += bytes
	}
}

// migrate starts the asynchronous drain of bytes that have landed on SCM.
func (st *stager) migrate(bytes int64) {
	if bytes <= 0 {
		return
	}
	st.startMigration(bytes)
}

// startMigration launches the asynchronous SCM→QLC drain of one burst.
// Migration happens inside the DBoxes (SCM → PCIe switches → QLC), so it
// consumes QLC write bandwidth but not the CBox↔DBox fabric, and the
// similarity reduction shrinks the bytes that reach flash.
func (st *stager) startMigration(bytes int64) {
	s := st.sys
	ratio := s.cfg.ReductionRatio
	if ratio < 1 {
		ratio = 1
	}
	pipes := s.qlc.StreamPipes(device.Sequential, true, 1<<20)
	var m *migration
	if n := len(st.free); n > 0 {
		m = st.free[n-1]
		st.free = st.free[:n-1]
	} else {
		m = &migration{st: st}
		m.startFn = func() { m.flow.Done().Notify(m.drainFn) }
		m.drainFn = m.drain
	}
	m.bytes = bytes
	s.fab.StartFlow(&m.flow, pipes, float64(bytes)/ratio, 0)
	s.env.Schedule(s.env.Now(), m.startFn)
}

// drain releases a migrated burst's staging room and frees the record.
func (m *migration) drain() {
	st := m.st
	st.staged -= m.bytes
	st.migrated += m.bytes
	st.space.Fire()
	st.space.Reset()
	st.free = append(st.free, m)
}
