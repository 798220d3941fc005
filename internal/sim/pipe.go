package sim

import (
	"fmt"
	"math"
	"slices"
	"sync"
)

// Fabric is a system of bandwidth Pipes with a global max–min fair-share
// solver. Every data movement in the simulator — a client NIC, a gateway
// Ethernet link, an NVMe-oF fabric, a flash channel — is a Pipe, and a
// transfer is a Flow that traverses one or more Pipes. Whenever the set of
// active flows changes, the fabric recomputes the exact max–min fair
// allocation (progressive filling / water-filling), so saturation points,
// contention effects and crossovers emerge from the topology instead of
// being scripted.
//
// Two structural optimizations keep the solver off the critical path of
// large sweeps (128 nodes × 44 ranks is 5632 concurrent flows):
//
//   - Flow classes: flows with an identical (pipe path, rate cap) signature
//     are aggregated into a single flowClass with a multiplicity count. The
//     solver's flow dimension is the number of *distinct* classes, not the
//     number of flows; per-flow byte bookkeeping stays exact through the
//     class work integral (see solver.go).
//   - Scoped re-solve: a membership change re-solves only the connected
//     component of pipes reachable from the changed flow's path. Unrelated
//     components keep their cached allocation, so churn on one storage
//     system never pays for the pipes of another.
//
// The solver is exact: it repeatedly finds the most-constrained pipe (or
// per-class rate cap), freezes the classes it constrains at their fair
// share, removes that capacity, and continues until every class has a
// rate. All iteration is over deterministic slices in creation order —
// never over maps — so a run is bit-for-bit reproducible.
type Fabric struct {
	env     *Env
	pipes   []*Pipe
	classes []*flowClass // live classes, insertion order with swap-remove

	// classIndex resolves a (path, rateCap) signature to its live class.
	classIndex map[string]*flowClass
	keyBuf     []byte // scratch for signature construction

	liveFlows int
	flowSeq   uint64 // start-order stamp; completion events fire in seq order

	lastAdvance  Time
	solvePending bool
	timer        Timer

	// stepFn and solveFn are the fabric's two scheduler callbacks, created
	// once so that re-arming the completion timer and coalescing a solve —
	// both per-event operations on busy fabrics — never allocate a closure.
	stepFn  func()
	solveFn func()

	// dirtyPipes accumulates pipes whose membership or capacity changed
	// since the last solve; the next solve re-allocates exactly the
	// connected region reachable from them.
	dirtyPipes []*Pipe

	// tagAcc integrates delivered bytes per interned flow tag (multi-tenant
	// attribution), indexed by FlowTag handle. Tags partition classes — the
	// tag is part of the class signature — so the per-tag integral is exact
	// under the same work accounting that serves per-flow completion.
	// Grown on demand: fabrics that never see a tagged flow pay nothing.
	tagAcc []float64

	// freeFlows recycles the Flow records of completed transfers. Only
	// Transfer-internal flows are pooled — StartFlow hands its Flow to the
	// caller, who may hold it (and its Done event) indefinitely. gen on the
	// Flow guards stale abort hooks across recycling.
	freeFlows []*Flow

	// deadClasses is the FIFO resurrection cache of retired flow classes
	// (see solver.go): an empty class keeps its signature slot in classIndex
	// so the next identical flow revives it instead of re-allocating class,
	// key, pipe and slot storage — the dominant allocation site of steady
	// request traffic, where each request's lone flow retires its class on
	// completion and the next request re-creates it.
	deadClasses []deadClassEntry
	deadHead    int // index of the oldest live entry in deadClasses
	deadSeq     uint64

	// solver scratch, reused across solves (see solver.go).
	regionPipes   []*Pipe
	regionClasses []*flowClass
	reapScratch   []*Flow
	visitGen      uint64

	// accounting enables per-pipe utilization integration (accounting.go).
	accounting bool
}

// NewFabric returns an empty fabric bound to env.
func NewFabric(env *Env) *Fabric {
	f := &Fabric{env: env, classIndex: map[string]*flowClass{}}
	f.stepFn = f.step
	f.solveFn = func() {
		f.solvePending = false
		f.step()
	}
	return f
}

// Pipe is a shared bandwidth resource inside a Fabric.
type Pipe struct {
	fabric   *Fabric
	id       int32
	name     string
	capacity float64 // effective bytes per second (base × health)
	latency  Duration

	// base is the nominal capacity the pipe was configured with; health is
	// the fault-injection factor applied on top of it (1 = healthy, 0 =
	// parked). Keeping them separate lets a failed component recover to its
	// exact pre-fault capacity and lets derates compose with the ablation
	// sweeps' SetCapacity calls.
	base   float64
	health float64

	// classes crossing this pipe, in deterministic insertion order
	// (swap-remove on class retirement keeps removal O(1) while staying
	// reproducible). nflows is the total member-flow count across them.
	classes []*flowClass
	nflows  int

	// scratch fields used by the solver
	remCap   float64
	unfrozen int // unfrozen member flows during a solve

	// scoped re-solve bookkeeping
	dirty    bool
	visitGen uint64

	// utilization accounting (see accounting.go)
	allocated    float64
	busyIntegral float64
	capIntegral  float64
}

// NewPipe adds a pipe with the given capacity in bytes/second and one-way
// propagation latency. Capacity must be positive.
func (f *Fabric) NewPipe(name string, bytesPerSec float64, latency Duration) *Pipe {
	if bytesPerSec <= 0 {
		panic("sim: pipe capacity must be positive: " + name)
	}
	p := &Pipe{
		fabric:   f,
		id:       int32(len(f.pipes)),
		name:     name,
		capacity: bytesPerSec,
		base:     bytesPerSec,
		health:   1,
		latency:  latency,
	}
	f.pipes = append(f.pipes, p)
	return p
}

// Name returns the pipe name.
func (p *Pipe) Name() string { return p.name }

// Fabric returns the fabric the pipe belongs to.
func (p *Pipe) Fabric() *Fabric { return p.fabric }

// Capacity returns the pipe capacity in bytes/second.
func (p *Pipe) Capacity() float64 { return p.capacity }

// Latency returns the pipe's one-way propagation latency.
func (p *Pipe) Latency() Duration { return p.latency }

// SetCapacity changes the pipe's base capacity and reallocates the flows of
// the pipe's connected component. Used by noise injectors and ablation
// sweeps. Any fault health factor stays applied on top of the new base.
func (p *Pipe) SetCapacity(bytesPerSec float64) {
	if bytesPerSec <= 0 {
		panic("sim: pipe capacity must be positive: " + p.name)
	}
	p.base = bytesPerSec
	p.applyCapacity()
}

// ParkedBps is the effective capacity of a parked pipe (health factor 0): a
// token trickle that lets in-flight flows drain away from a failed component
// instead of dividing by zero, mirroring an NFS hard mount retrying into the
// void until its server returns.
const ParkedBps = 1

// SetHealthFactor derates the pipe to fraction f of its base capacity —
// the fault-injection handle. f = 1 restores full health, 0 parks the pipe
// at ParkedBps, values in between model NIC derates and SSD wear. Unlike
// SetCapacity arithmetic done by callers, the factor is absolute, so a
// recover event restores the exact pre-fault capacity.
func (p *Pipe) SetHealthFactor(f float64) {
	switch {
	case f < 0 || f > 1:
		panic(fmt.Sprintf("sim: health factor %g out of [0,1]: %s", f, p.name))
	case f == p.health:
		return
	}
	p.health = f
	p.applyCapacity()
}

// HealthFactor returns the pipe's current fault derate factor (1 = healthy).
func (p *Pipe) HealthFactor() float64 { return p.health }

// BaseCapacity returns the nominal capacity before fault derating.
func (p *Pipe) BaseCapacity() float64 { return p.base }

// applyCapacity recomputes the effective capacity from base × health and
// schedules a re-solve of the pipe's connected component.
func (p *Pipe) applyCapacity() {
	eff := p.base * p.health
	if eff < ParkedBps {
		eff = ParkedBps
	}
	if eff == p.capacity {
		return
	}
	p.fabric.advance()
	p.capacity = eff
	p.fabric.touch(p)
	p.fabric.markDirty()
}

// ActiveFlows returns the number of flows currently crossing the pipe.
func (p *Pipe) ActiveFlows() int { return p.nflows }

// Flow is an in-progress transfer across a set of pipes. Internally it is
// one member of a flowClass; its own state is just the class work level at
// which it completes.
type Flow struct {
	class  *flowClass
	seq    uint64  // start order, used for deterministic completion events
	target float64 // class work level (bytes per member) at which it is done
	pooled bool    // recycled through fabric.freeFlows on completion/abort
	// gen counts pool lifecycles. Abort hooks snapshot it at registration
	// (see Abort.onFireFlow); a hook whose snapshot no longer matches is
	// aimed at a recycled record and must not fire.
	gen uint64
	// done is embedded by value: one Flow allocation carries its completion
	// event, halving the per-flow allocation count on the start path.
	done Event
}

// Rate returns the flow's currently allocated bandwidth in bytes/sec.
func (fl *Flow) Rate() float64 { return fl.class.rate }

// PathLatency returns the sum of one-way latencies along pipes.
func PathLatency(pipes []*Pipe) Duration {
	var d Duration
	for _, p := range pipes {
		d += p.latency
	}
	return d
}

// Transfer moves `bytes` across the given pipes as a single flow, blocking
// the calling process until the last byte arrives. The flow receives its
// max–min fair share of every pipe it crosses, further limited by rateCap
// when non-zero. Propagation latency of the path is charged once, up front.
//
// Transfer is the flow-level primitive: it models a sustained stream (an
// IOR rank writing its whole file, an NFS connection moving a block) rather
// than individual packets.
// The flow inherits the calling process's flow tag (see Proc.SetFlowTag),
// so multi-tenant engines get per-tenant bandwidth attribution for free.
//
// Transfer is a cancellation point: if the process carries an abort token
// (Proc.SetAbort) that fired, it returns immediately without moving bytes,
// and a token firing mid-transfer cancels the in-flight flow (AbortFlow) so
// the waiter unwinds at once instead of draining a parked pipe.
func (f *Fabric) Transfer(p *Proc, pipes []*Pipe, bytes float64, rateCap float64) {
	f.TransferAfter(p, 0, pipes, bytes, rateCap)
}

// TransferAfter is Transfer after a delay — an RPC or access latency paid
// before the bytes move, none when delay <= 0 — with the process parked
// once, not once per stage. The kernel runs each stage in-line at its
// instant: at the end of the delay and of the path's propagation latency it
// checks the abort token (a fired one resumes the process, and the
// transfer returns), and at the start instant it starts the flow with the
// process as its waiter. The calendar sees the same events in the same
// order as a Sleep and a woken process would have filed, so the schedule
// is the same; only the wake-ups between the stages are gone.
//
// The cancellation points are those of the two calls it replaces: the end
// of the delay, the end of the propagation latency, and the flow (a fired
// token cancels it). With no delay the first is at the call. With no bytes
// TransferAfter only waits out the delay.
func (f *Fabric) TransferAfter(p *Proc, delay Duration, pipes []*Pipe, bytes float64, rateCap float64) {
	if bytes <= 0 {
		p.Sleep(max(delay, 0))
		return
	}
	x := f.newPending(pipes, bytes, rateCap)
	if delay > 0 {
		f.env.scheduleEvent(f.env.now.Add(delay), evTransfer, nil, p).xfer = x
	} else if f.stepPending(p, x) {
		return // the token had fired: no delay to wait out
	}
	p.park("")
}

// pendingTransfer is a TransferAfter whose flow has not started: its
// process is parked and an evTransfer event carries the record to the next
// stage. The path is copied into buf, so the caller's pipe slice may live
// on its stack.
type pendingTransfer struct {
	f       *Fabric
	pipes   []*Pipe // the path, in buf unless it is longer
	bytes   float64
	rateCap float64
	latency bool             // the delay is over; the next stage starts the flow
	next    *pendingTransfer // Env.freePending's link
	buf     [8]*Pipe
}

// pendingPool carries idle pendingTransfer records from one Env to the
// next. A sweep builds hundreds of short-lived fabrics, each of which would
// otherwise grow its own records to its peak of transfers pending at once
// (2816 in a 64-node, 44-rank IOR run). An Env draws from the pool when its
// own free list is empty and hands the list back when a run ends
// (Env.stopWorkers); a record keeps nothing of a run between uses.
var pendingPool sync.Pool

func (f *Fabric) newPending(pipes []*Pipe, bytes, rateCap float64) *pendingTransfer {
	e := f.env
	x := e.freePending
	if x != nil {
		e.freePending = x.next
	} else if v := pendingPool.Get(); v != nil {
		x = v.(*pendingTransfer)
	} else {
		x = new(pendingTransfer)
	}
	x.f = f
	x.pipes = append(x.buf[:0], pipes...)
	x.bytes, x.rateCap, x.latency = bytes, rateCap, false
	return x
}

// poolTransfers hands the Env's idle transfer records to pendingPool,
// cleared of their pointers into this simulation.
func (e *Env) poolTransfers() {
	for x := e.freePending; x != nil; {
		next := x.next
		*x = pendingTransfer{}
		pendingPool.Put(x)
		x = next
	}
	e.freePending = nil
}

// stepPending runs the stage of p's pending transfer x that is due now —
// on the goroutine draining the calendar, or at the call when there is no
// delay — exactly as the woken process would have: a fired abort token
// ends the transfer, the end of the delay files the latency stage, and the
// start instant starts the flow with p as its waiter, registered on p's
// abort token and listed on the deadlock list as Event.Wait would list it.
// It reports whether the transfer returned.
func (f *Fabric) stepPending(p *Proc, x *pendingTransfer) (returned bool) {
	e := f.env
	if returned = p.Aborted(); !returned {
		if !x.latency {
			x.latency = true
			if lat := PathLatency(x.pipes); lat > 0 {
				e.scheduleEvent(e.now.Add(lat), evTransfer, nil, p).xfer = x
				return false
			}
		}
		fl := f.startFlow(x.pipes, x.bytes, x.rateCap, p.flowTag, true)
		p.abort.onFireFlow(f, fl)
		fl.done.addWaiter(p)
		e.pushBlocked(p, "event")
	}
	x.next, e.freePending = e.freePending, x
	return returned
}

// StartFlow registers an untagged flow without blocking; the returned
// flow's Done event fires on completion. Most callers want Transfer.
func (f *Fabric) StartFlow(pipes []*Pipe, bytes float64, rateCap float64) *Flow {
	return f.startFlow(pipes, bytes, rateCap, 0, false)
}

// startFlow registers a flow. pooled flows (Transfer's) are drawn from and
// returned to the fabric's free list — the caller must not retain them past
// their done event; StartFlow flows are heap-allocated and owned by the
// caller.
func (f *Fabric) startFlow(pipes []*Pipe, bytes float64, rateCap float64, tag FlowTag, pooled bool) *Flow {
	if len(pipes) == 0 {
		panic("sim: flow must cross at least one pipe")
	}
	f.advance()
	c := f.classFor(pipes, rateCap, tag)
	var fl *Flow
	if n := len(f.freeFlows); pooled && n > 0 {
		fl = f.freeFlows[n-1]
		f.freeFlows[n-1] = nil
		f.freeFlows = f.freeFlows[:n-1]
		fl.done.fired = false
	} else {
		fl = &Flow{pooled: pooled, done: Event{env: f.env}}
	}
	fl.class = c
	fl.seq = f.flowSeq
	fl.target = c.work + bytes
	f.flowSeq++
	c.pushMember(fl)
	for _, pp := range c.pipes {
		pp.nflows++
		f.touch(pp)
	}
	f.liveFlows++
	f.markDirty()
	return fl
}

// releaseFlow recycles a completed (or aborted) pooled flow. The generation
// bump invalidates every abort hook registered against this lifecycle.
func (f *Fabric) releaseFlow(fl *Flow) {
	if !fl.pooled {
		return
	}
	fl.gen++
	fl.class = nil
	f.freeFlows = append(f.freeFlows, fl)
}

// Done exposes the completion event of a flow started with StartFlow.
func (fl *Flow) Done() *Event { return &fl.done }

// advance accrues progress on every active class at the rates computed by
// the last solve. It must be called before any state change. Cost is
// O(classes), independent of the flow count.
func (f *Fabric) advance() {
	dt := f.env.now.Sub(f.lastAdvance).Seconds()
	f.lastAdvance = f.env.now
	if dt <= 0 {
		return
	}
	if f.accounting {
		for _, p := range f.pipes {
			p.accrue(dt)
		}
	}
	for _, c := range f.classes {
		c.work += c.rate * dt
		if c.tag != 0 {
			// f.classes iterates in deterministic (insertion/swap-remove)
			// order, so same-tag float accumulation is reproducible.
			// tagAcc is sized for every interned tag by classFor.
			f.tagAcc[c.tag] += c.rate * dt * float64(c.count)
		}
	}
}

// TagBytes returns the bytes delivered so far to flows carrying tag,
// integrated continuously (in-flight progress counts). Unknown tags report
// zero. Call after the fabric has settled (or accept the value as of the
// last advance).
func (f *Fabric) TagBytes(tag string) float64 {
	id, ok := f.env.lookupTag(tag)
	if !ok || id == 0 || int(id) >= len(f.tagAcc) {
		return 0
	}
	return f.tagAcc[id]
}

// touch marks a pipe's allocation as stale, scheduling its connected
// component for the next solve.
func (f *Fabric) touch(p *Pipe) {
	if !p.dirty {
		p.dirty = true
		f.dirtyPipes = append(f.dirtyPipes, p)
	}
}

// markDirty schedules a single solve at the current instant, coalescing any
// number of same-instant membership changes into one solver run.
func (f *Fabric) markDirty() {
	if f.solvePending {
		return
	}
	f.solvePending = true
	f.env.Schedule(f.env.now, f.solveFn)
}

// Settled reports whether the fabric has no same-instant re-solve pending.
// Invariant checkers sampling between a capacity change and its coalesced
// solve event skip allocation checks until the fabric settles.
func (f *Fabric) Settled() bool { return !f.solvePending }

// step is the fabric's per-event pipeline: integrate progress, complete
// finished flows, re-solve the dirty region, and re-arm the completion
// timer.
func (f *Fabric) step() {
	f.advance()
	f.reapFinished()
	f.solve()
	if f.accounting {
		f.recomputeAllocations()
	}
	f.scheduleNextCompletion()
}

// completionSlack absorbs float rounding in the byte accounting: at
// simulated rates of ~1e11 B/s the accumulated error is far below a byte,
// and no modeled transfer is smaller than a kilobyte, so a flow within
// completionSlack bytes of its target is complete.
const completionSlack = 1e-3

// reapFinished completes flows whose byte counts have reached their class
// work target, firing their done events in flow-start order. Only classes
// are scanned, never individual flows.
func (f *Fabric) reapFinished() {
	if f.liveFlows == 0 {
		return
	}
	reaped := f.reapScratch[:0]
	for _, c := range f.classes {
		for len(c.members) > 0 && c.members[0].target-c.work < completionSlack {
			reaped = append(reaped, c.popMember())
		}
	}
	if len(reaped) == 0 {
		f.reapScratch = reaped
		return
	}
	for _, fl := range reaped {
		c := fl.class
		c.count--
		for _, pp := range c.pipes {
			pp.nflows--
			f.touch(pp)
		}
		if c.count == 0 {
			f.retireClass(c)
		}
	}
	f.liveFlows -= len(reaped)
	// Fire completions in flow-start order: the seed implementation kept a
	// global start-ordered flow list, and waiter wake-up order is part of
	// the deterministic schedule. slices.SortFunc keeps the sort off the
	// heap — sort.Slice costs two allocations per reap on this hot path.
	slices.SortFunc(reaped, func(a, b *Flow) int {
		if a.seq < b.seq {
			return -1
		}
		return 1
	})
	for _, fl := range reaped {
		fl.done.Fire()
	}
	// Recycle after every completion fired: waiters were woken by Fire (they
	// resume via their own scheduled events and never touch the Flow again),
	// and the generation bump in releaseFlow disarms any abort hook still
	// aimed at this lifecycle.
	for i, fl := range reaped {
		f.releaseFlow(fl)
		reaped[i] = nil
	}
	f.reapScratch = reaped[:0]
}

// scheduleNextCompletion arms the fabric timer for the earliest flow finish
// under the current allocation. The scan is over classes: each class tracks
// its earliest-finishing member in a heap, so the cost is O(classes)
// instead of O(flows).
func (f *Fabric) scheduleNextCompletion() {
	// Cancel on the zero Timer is a no-op, which covers the very first arm
	// (before any timer exists) and re-arming from within the timer's own
	// firing (the fired event's generation has already moved on).
	f.timer.Cancel()
	f.timer = Timer{}
	if f.liveFlows == 0 {
		return
	}
	earliest := math.Inf(1)
	for _, c := range f.classes {
		if c.rate <= 0 {
			panic("sim: flow class allocated zero rate after solve: " + c.describe())
		}
		if t := (c.members[0].target - c.work) / c.rate; t < earliest {
			earliest = t
		}
	}
	// Quantize upward to a whole nanosecond so completion never lands
	// before the true finish instant.
	ns := Time(math.Ceil(earliest * 1e9))
	if ns < 0 {
		ns = 0
	}
	f.timer = f.env.Schedule(f.env.now+ns, f.stepFn)
}

func pipeNames(pipes []*Pipe) []string {
	names := make([]string, len(pipes))
	for i, p := range pipes {
		names[i] = p.name
	}
	return names
}
