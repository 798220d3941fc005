package repair

import (
	"testing"
	"time"

	"storagesim/internal/sim"
)

// fakeBackend is a minimal Protected implementation: 4 servers that are
// its units (FaultUnits 0, so faults.UnitsAreServers holds) behind a
// declustered scheme with tolerance 1, all repair flows crossing one pipe
// so the test can reason about rebuild duration. It records server and
// unit calls apart.
type fakeBackend struct {
	scheme    Scheme
	path      []*sim.Pipe
	unitBytes float64

	serverDown []bool
	unitDown   []bool
	rebuilt    []float64

	recoverUnitCalls int
}

func newFakeBackend(fab *sim.Fabric, scheme Scheme) *fakeBackend {
	return &fakeBackend{
		scheme:     scheme,
		path:       []*sim.Pipe{fab.NewPipe("repair", 1e9, 0)},
		unitBytes:  64e6,
		serverDown: make([]bool, 4),
		unitDown:   make([]bool, 4),
		rebuilt:    make([]float64, 4),
	}
}

func (b *fakeBackend) FaultServers() int        { return len(b.serverDown) }
func (b *fakeBackend) FailServer(i int)         { b.serverDown[i] = true }
func (b *fakeBackend) RecoverServer(i int)      { b.serverDown[i] = false }
func (b *fakeBackend) SetLinkHealth(f float64)  {}
func (b *fakeBackend) SetMediaHealth(f float64) {}
func (b *fakeBackend) FaultUnits() int          { return 0 }
func (b *fakeBackend) FailUnit(i int)           { b.unitDown[i] = true; b.rebuilt[i] = 0 }
func (b *fakeBackend) RepairScheme() Scheme     { return b.scheme }
func (b *fakeBackend) UnitBytes(i int) float64  { return b.unitBytes }
func (b *fakeBackend) RepairPath(i int) []*sim.Pipe {
	if b.scheme.Kind == None {
		return nil
	}
	return b.path
}
func (b *fakeBackend) SetUnitRebuild(i int, frac float64) { b.rebuilt[i] = frac }
func (b *fakeBackend) RecoverUnit(i int) {
	b.unitDown[i] = false
	b.rebuilt[i] = 0
	b.recoverUnitCalls++
}

func declustered() Scheme {
	return Scheme{Kind: DeclusteredRAID, Tolerance: 1}
}

func TestRebuildWithinTolerance(t *testing.T) {
	env := sim.NewEnv()
	fab := sim.NewFabric(env)
	b := newFakeBackend(fab, declustered())
	m := NewManager(env, fab, b, Aggressive())

	env.After(time.Millisecond, func() { m.FailUnit(1) })
	end := env.Run()

	if got := len(m.Jobs()); got != 1 {
		t.Fatalf("expected 1 rebuild job, got %d", got)
	}
	job := m.Jobs()[0]
	if job.Bytes != b.unitBytes {
		t.Errorf("job bytes = %g, want %g", job.Bytes, b.unitBytes)
	}
	if job.End == 0 || job.End <= job.Start {
		t.Errorf("job not completed: start %v end %v", job.Start, job.End)
	}
	// 64 MB over a 1 GB/s pipe takes 64 ms of flow time.
	wantEnd := sim.Time(time.Millisecond + 64*time.Millisecond)
	if job.End != wantEnd {
		t.Errorf("rebuild finished at %v, want %v", sim.Duration(job.End), sim.Duration(wantEnd))
	}
	if end < wantEnd {
		t.Errorf("run ended at %v, before the rebuild at %v", end, wantEnd)
	}
	if m.RebuiltBytes() != b.unitBytes {
		t.Errorf("RebuiltBytes = %g, want %g", m.RebuiltBytes(), b.unitBytes)
	}
	if m.LostBytes() != 0 {
		t.Errorf("LostBytes = %g, want 0", m.LostBytes())
	}
	if b.unitDown[1] || b.rebuilt[1] != 0 {
		t.Errorf("unit 1 not restored: down=%v rebuilt=%g", b.unitDown[1], b.rebuilt[1])
	}
	if b.recoverUnitCalls != 1 {
		t.Errorf("RecoverUnit called %d times, want 1", b.recoverUnitCalls)
	}
	if err := m.CheckComplete(); err != nil {
		t.Errorf("CheckComplete: %v", err)
	}
}

func TestRebuildStepsHealthIncrementally(t *testing.T) {
	env := sim.NewEnv()
	fab := sim.NewFabric(env)
	b := newFakeBackend(fab, declustered())
	m := NewManager(env, fab, b, QoS{Chunks: 4})

	env.After(time.Millisecond, func() { m.FailUnit(0) })
	// Sample the rebuilt fraction mid-rebuild: the 64 MB job takes 64 ms in
	// 4 chunks of 16 ms, so at fail+20ms exactly one chunk has landed.
	var midFrac float64
	env.After(21*time.Millisecond, func() { midFrac = b.rebuilt[0] })
	env.Run()

	if midFrac != 0.25 {
		t.Errorf("rebuilt fraction mid-rebuild = %g, want 0.25 (incremental, not snap-back)", midFrac)
	}
	if b.rebuilt[0] != 0 || b.unitDown[0] {
		t.Errorf("unit 0 not fully restored after run")
	}
}

func TestBeyondToleranceReportsLoss(t *testing.T) {
	env := sim.NewEnv()
	fab := sim.NewFabric(env)
	b := newFakeBackend(fab, declustered())
	m := NewManager(env, fab, b, Aggressive())

	env.After(time.Millisecond, func() { m.FailUnit(0) })
	env.After(2*time.Millisecond, func() { m.FailUnit(1) }) // second concurrent failure > tolerance 1
	env.Run()

	if got := len(m.Losses()); got != 1 {
		t.Fatalf("expected 1 loss, got %d", got)
	}
	loss := m.Losses()[0]
	if loss.Unit != 1 || loss.Bytes != b.unitBytes {
		t.Errorf("loss = %+v, want unit 1 with %g bytes", loss, b.unitBytes)
	}
	if m.LostBytes() != b.unitBytes {
		t.Errorf("LostBytes = %g, want %g", m.LostBytes(), b.unitBytes)
	}
	// Unit 0's rebuild still completes; unit 1 never gets a job.
	if got := len(m.Jobs()); got != 1 {
		t.Errorf("expected 1 rebuild job, got %d", got)
	}
	if err := m.CheckComplete(); err != nil {
		t.Errorf("CheckComplete after loss: %v", err)
	}
}

func TestSchemeNoneLosesEveryFailure(t *testing.T) {
	env := sim.NewEnv()
	fab := sim.NewFabric(env)
	b := newFakeBackend(fab, Scheme{Kind: None})
	m := NewManager(env, fab, b, Aggressive())

	// Server failure reaches the unit path: the units are the servers.
	env.After(time.Millisecond, func() { m.FailServer(2) })
	env.Run()

	if len(m.Jobs()) != 0 {
		t.Errorf("scheme None must not rebuild, got %d jobs", len(m.Jobs()))
	}
	if m.LostBytes() != b.unitBytes {
		t.Errorf("LostBytes = %g, want %g", m.LostBytes(), b.unitBytes)
	}
	if !b.serverDown[2] {
		t.Errorf("server failure not delegated")
	}
	if err := m.CheckComplete(); err != nil {
		t.Errorf("CheckComplete: %v", err)
	}
}

func TestRecoverDuringRebuildIsSwallowed(t *testing.T) {
	env := sim.NewEnv()
	fab := sim.NewFabric(env)
	b := newFakeBackend(fab, declustered())
	m := NewManager(env, fab, b, QoS{Chunks: 4})

	env.After(time.Millisecond, func() { m.FailUnit(0) })
	// Physical recovery mid-rebuild must not snap health back: the backend
	// keeps the unit failed (health follows rebuild fraction) until the job
	// finishes.
	var downAfterRecover bool
	env.After(21*time.Millisecond, func() {
		m.RecoverUnit(0)
		downAfterRecover = b.unitDown[0]
	})
	env.Run()

	if !downAfterRecover {
		t.Errorf("recover event mid-rebuild snapped the unit back")
	}
	if b.unitDown[0] {
		t.Errorf("unit 0 still down after rebuild completed")
	}
	if len(m.Jobs()) != 1 || m.Jobs()[0].End == 0 {
		t.Errorf("rebuild did not run to completion: %+v", m.Jobs())
	}
	if err := m.CheckComplete(); err != nil {
		t.Errorf("CheckComplete: %v", err)
	}
}

func TestRecoverLostUnitRestoresCapacityKeepsLoss(t *testing.T) {
	env := sim.NewEnv()
	fab := sim.NewFabric(env)
	b := newFakeBackend(fab, Scheme{Kind: None})
	m := NewManager(env, fab, b, Aggressive())

	env.After(time.Millisecond, func() { m.FailUnit(3) })
	env.After(2*time.Millisecond, func() { m.RecoverUnit(3) })
	env.Run()

	if b.unitDown[3] {
		t.Errorf("lost unit's physical recovery must restore capacity")
	}
	if m.LostBytes() != b.unitBytes {
		t.Errorf("LostBytes = %g after recovery, want %g (exposure stays counted)", m.LostBytes(), b.unitBytes)
	}
}

func TestThrottledSlowerThanAggressive(t *testing.T) {
	finish := func(qos QoS) sim.Time {
		env := sim.NewEnv()
		fab := sim.NewFabric(env)
		b := newFakeBackend(fab, declustered())
		m := NewManager(env, fab, b, qos)
		env.After(time.Millisecond, func() { m.FailUnit(0) })
		env.Run()
		return m.Jobs()[0].End
	}
	agg := finish(Aggressive())
	thr := finish(Throttled(1e8)) // 10% of the pipe
	if thr <= agg {
		t.Errorf("throttled rebuild finished at %v, aggressive at %v; throttled must be slower", thr, agg)
	}
	// 64 MB at 100 MB/s = 640 ms + 1 ms fail offset.
	want := sim.Time(time.Millisecond + 640*time.Millisecond)
	if thr != want {
		t.Errorf("throttled finish = %v, want %v", sim.Duration(thr), sim.Duration(want))
	}
}

func TestMinBytesFloorsRebuild(t *testing.T) {
	env := sim.NewEnv()
	fab := sim.NewFabric(env)
	b := newFakeBackend(fab, declustered())
	b.unitBytes = 1e3 // nearly empty
	m := NewManager(env, fab, b, QoS{MinBytes: 32e6})

	env.After(time.Millisecond, func() { m.FailUnit(0) })
	env.Run()

	if got := m.Jobs()[0].Bytes; got != 32e6 {
		t.Errorf("job bytes = %g, want the 32e6 floor", got)
	}
}
