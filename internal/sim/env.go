package sim

import (
	"fmt"
	"math"
	"runtime"
	"sort"
)

// Env is a simulation environment: the virtual clock, the event calendar and
// the process scheduler. An Env is not safe for use from multiple OS-level
// goroutines except through the process primitives it hands out; the
// scheduler itself guarantees that only one simulated process runs at a time.
//
// The scheduler has no dedicated goroutine: whichever goroutine holds the
// baton (initially the Run caller) drains the calendar inline, and resuming
// a process hands the baton directly to that process's goroutine with a
// single channel operation. When an event resumes the very process that is
// draining the calendar — the Sleep-loop pattern — no channel operation or
// goroutine switch happens at all. When the calendar drains, the goroutine
// holding the baton passes it on: to the window loop of the Group the Env
// is a shard of, while that group runs, and otherwise back to the Run
// caller.
type Env struct {
	now Time
	seq uint64
	q   eventQueue

	// deadline bounds dispatch: Run uses the maximum Time, RunUntil the
	// caller's deadline. Events beyond it stay queued.
	deadline Time
	running  bool

	// group is the Group this Env is a shard of, nil for a plain Env.
	group *Group

	// mainResume is where Run/RunUntil wait while a process holds the
	// baton; whichever goroutine drains the calendar hands it back. A
	// shard shares its group's channel, where Group.Run waits.
	mainResume chan struct{}

	// fnPanic carries a model-callback panic from a worker goroutine to the
	// main goroutine (see dispatch), so callback panics always surface at the
	// Run caller no matter which goroutine happened to drain the event.
	fnPanic any

	blocked []blockedProc

	// starts, resumes and switches count the process functions begun,
	// the wake-ups of parked processes and the baton's hand-offs between
	// goroutines (see Starts, Resumes and Switches).
	starts, resumes, switches int

	// freeWorkers are parked goroutines whose process has finished,
	// available for reuse by the next Go. spawnedWorkers counts actual
	// goroutine launches (recycling diagnostics).
	freeWorkers    []*worker
	spawnedWorkers int

	// freeProcs is the free list behind Go: finished Procs recycled for
	// the next spawn. Like the event pool, a plain slice — single-threaded
	// by construction, deterministic reuse order.
	freeProcs []*Proc

	// freePending lists the idle records of TransferAfter calls (see
	// pendingPool), linked through their next fields.
	freePending *pendingTransfer

	// Interned flow tags (see tag.go). tagNames[0] is the untagged "".
	tagIndex map[string]FlowTag
	tagNames []string
}

// blockedProc records one process parked on a non-timer wait, for the
// deadlock report. A slice (with the index mirrored in the Proc) replaces
// the seed's map so the report order never depends on map iteration and the
// park hot path never hashes.
type blockedProc struct {
	p   *Proc
	why string
}

// NewEnv returns an environment with the clock at zero.
func NewEnv() *Env {
	return &Env{mainResume: make(chan struct{})}
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// Starts returns how many process functions have begun. Tests and
// benchmarks read it, with Resumes and Switches, to pin the work a design
// keeps out of processes.
func (e *Env) Starts() int { return e.starts }

// Resumes returns how many times a parked process has been woken.
func (e *Env) Resumes() int { return e.resumes }

// Switches returns how many times the baton passed from one goroutine to
// another on this Env's behalf: to the goroutine of a resumed or started
// process, to a fresh worker, or back to the Run caller. A resume or start
// that the goroutine already holding the baton runs itself is no switch.
// Like the other counts it is deterministic: it follows from the calendar
// alone.
func (e *Env) Switches() int { return e.switches }

// Pending returns the number of live events on the calendar — cancelled
// events are dropped from the count immediately and never resurface.
// Periodic observers (the fault-injection invariant sampler) use it to
// re-arm themselves only while the simulation still has work, so Run can
// terminate.
func (e *Env) Pending() int { return e.q.live() }

// scheduleEvent files a pooled event on the calendar. All scheduling —
// public Schedule/After, process timers, process starts — funnels through
// here, so at >= now is a global invariant and the calendar's (at, seq)
// order is total.
func (e *Env) scheduleEvent(at Time, kind uint8, fn func(), p *Proc) *timedEvent {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	e.seq++
	ev := e.q.alloc()
	ev.at = at
	ev.seq = e.seq
	ev.kind = kind
	ev.fn = fn
	ev.proc = p
	e.q.insert(ev)
	return ev
}

// Schedule runs fn at time `at`. It returns a Timer that can cancel the
// event before it fires. Neither the schedule nor a cancel allocates; a
// caller that re-arms a timer on a hot path should bind fn once and reuse
// it, so that no closure allocates either. Scheduling in the past panics:
// that is always a model bug.
func (e *Env) Schedule(at Time, fn func()) Timer {
	ev := e.scheduleEvent(at, evFn, fn, nil)
	return Timer{env: e, ev: ev, gen: ev.gen}
}

// After runs fn after duration d.
func (e *Env) After(d Duration, fn func()) Timer {
	return e.Schedule(e.now.Add(d), fn)
}

// Timer is the by-value cancel handle of a scheduled event. The zero value
// refers to nothing.
type Timer struct {
	env *Env
	ev  *timedEvent
	// gen snapshots the event's generation at schedule time. Events are
	// pooled and recycled after they fire or cancel; a mismatch means this
	// timer's event is gone and the pooled object now belongs to a later
	// Schedule, so Cancel must not touch it.
	gen uint64
}

// Cancel removes the event from the calendar so it neither fires nor counts
// toward Pending. Cancelling the zero Timer, cancelling twice, cancelling
// after the event has fired, and cancelling through a Timer whose (pooled,
// recycled) event now belongs to a later Schedule are all no-ops, so
// callers that keep an optional timer may cancel unconditionally.
func (t Timer) Cancel() {
	if t.ev != nil && t.ev.gen == t.gen {
		t.env.q.cancel(t.ev)
	}
}

// Go starts a new simulated process running fn. The process begins executing
// at the current virtual time, after the caller parks or (when called from
// outside the simulation) when Run is invoked. The goroutine that carries it
// is drawn from the environment's pool of parked workers when one is free;
// spawning is the exception, not the rule, on churny workloads.
//
// Go hands out no reference to the process: its Proc record is recycled
// through a free list once fn returns, so request-scoped fan-out spawned
// millions of times per run (the traffic engine's requests, the resilience
// layer's attempts) allocates no record per spawn. A caller that must join
// the process uses a WaitGroup. Recycling consumes no sequence number: the
// evStart event is the same whether the record is new or reused.
func (e *Env) Go(name string, fn func(p *Proc)) {
	var p *Proc
	if n := len(e.freeProcs); n > 0 {
		p = e.freeProcs[n-1]
		e.freeProcs[n-1] = nil
		e.freeProcs = e.freeProcs[:n-1]
		p.name = name
		p.fn = fn
		p.finished = false
	} else {
		p = &Proc{env: e, name: name, fn: fn, blockedIdx: -1}
	}
	e.scheduleEvent(e.now, evStart, nil, p)
}

// recycleProc returns a finished Proc to the free list. The stale
// w.proc pointer its last worker may still hold is harmless: a parked
// worker's proc field is only read after bindWorker overwrites it, and a
// dispatching worker's own process cannot have been recycled and re-parked
// within that same dispatch (restarting it rebinds and ends the dispatch).
func (e *Env) recycleProc(p *Proc) {
	p.w = nil
	p.flowTag = 0
	p.abort = nil
	e.freeProcs = append(e.freeProcs, p)
}

// dispatch outcomes.
const (
	dispHandoff = iota // baton handed to another goroutine; caller must wait
	dispSelf           // the caller's own process was resumed (or re-assigned)
	dispDone           // calendar drained up to the deadline
)

// dispatch is the scheduler's inner loop. It runs calendar events on the
// calling goroutine until one transfers control: resuming another process
// hands the baton directly to its goroutine (one channel send — the classic
// bounce through a central scheduler goroutine is gone); resuming the
// calling process returns dispSelf with no channel traffic at all. w is the
// calling worker, nil when main dispatches.
//
// A drained calendar returns dispDone, to the Run caller and to a worker
// alike; a worker then passes the baton on itself (drain).
//
// Plain fn events run inline on whichever goroutine drains them. That is
// what lets steady request traffic chain on a single worker with no channel
// operations at all: a worker that finishes one request pops the next
// arrival tick, admits inline, pops the spawn it just scheduled and rebinds
// itself (dispSelf) — where stashing fn events for the main goroutine would
// cost two baton hand-offs per callback. The price is that deep model
// callbacks (the fabric solver above all) can grow worker stacks to the
// model's high-water mark, bounded by the worker pool cap; panics from
// model callbacks are relayed through fnPanic so they still surface at the
// Run caller, as they did in the seed. The stages of a pending transfer
// (Fabric.TransferAfter) run inline the same way, and resume their process
// only when the transfer returns at a stage.
func (e *Env) dispatch(w *worker) int {
	for {
		ev := e.q.pop(e.deadline)
		if ev == nil {
			return dispDone
		}
		e.now = ev.at
		switch ev.kind {
		case evFn:
			fn := ev.fn
			e.q.release(ev)
			if w == nil {
				fn()
			} else if !e.runFnOnWorker(fn) {
				// The callback panicked: relay the value home, where the Run
				// caller re-panics (rethrow). The simulation is dead; this
				// goroutine parks forever on its resume channel (exactly the
				// fate of every other worker parked mid-wait at a panic).
				e.handBack()
				return dispHandoff
			}
		case evResume:
			p := ev.proc
			e.q.release(ev)
			return e.resume(w, p)
		case evTransfer:
			p, x := ev.proc, ev.xfer
			e.q.release(ev)
			resume, ok := false, true
			if w == nil {
				resume = x.f.stepPending(p, x)
			} else {
				resume, ok = e.stepPendingOnWorker(p, x)
			}
			if !ok {
				e.handBack() // relayed like a callback panic
				return dispHandoff
			}
			if resume {
				return e.resume(w, p)
			}
		default: // evStart
			p := ev.proc
			e.q.release(ev)
			e.starts++
			nw := e.takeWorker()
			if nw == nil {
				nw = &worker{resume: make(chan struct{})}
				e.spawnedWorkers++
				e.switches++
				bindWorker(nw, p)
				go e.workerMain(nw)
				return dispHandoff
			}
			bindWorker(nw, p)
			if nw == w {
				// The dispatching worker just finished its process and
				// pooled itself; workerMain picks the new job up in its
				// loop instead of this goroutine sending to itself.
				return dispSelf
			}
			e.switches++
			nw.resume <- struct{}{}
			return dispHandoff
		}
	}
}

// resume hands the baton to the parked process p: with no channel
// operation when the dispatching worker is p's own, otherwise with one send
// to p's goroutine.
func (e *Env) resume(w *worker, p *Proc) int {
	e.resumes++
	if w != nil && p == w.proc {
		return dispSelf
	}
	e.switches++
	p.w.resume <- struct{}{}
	return dispHandoff
}

// drain is dispatch for a worker, which must pass the baton on when the
// calendar drains: to the window loop of the running Group this Env is a
// shard of (Group.next), and otherwise, or once the group's run reaches
// its deadline, back to the Run caller.
func (e *Env) drain(w *worker) int {
	if d := e.dispatch(w); d != dispDone {
		return d
	}
	if g := e.group; g != nil && g.running {
		if d := g.next(w); d != dispDone {
			return d
		}
	}
	e.handBack()
	return dispHandoff
}

// handBack hands the baton back to the Run caller, waiting on mainResume.
func (e *Env) handBack() {
	e.switches++
	e.mainResume <- struct{}{}
}

// rethrow re-panics, at the Run caller, with the value of a callback
// panic a worker relayed (see dispatch).
func (e *Env) rethrow() {
	if r := e.fnPanic; r != nil {
		e.fnPanic = nil
		panic(r)
	}
}

// runFnOnWorker executes a model callback on a worker goroutine, converting
// a panic into a false return with the value parked in fnPanic. Keeping the
// recover in its own frame keeps dispatch's hot loop free of deferred calls,
// and a callback that returns skips recover altogether.
func (e *Env) runFnOnWorker(fn func()) (ok bool) {
	defer func() {
		if !ok {
			e.fnPanic = recover()
		}
	}()
	fn()
	return true
}

// stepPendingOnWorker is runFnOnWorker for the in-line stage of a pending
// transfer (Fabric.stepPending), which starts a flow and so runs model code.
func (e *Env) stepPendingOnWorker(p *Proc, x *pendingTransfer) (resume, ok bool) {
	defer func() {
		if !ok {
			e.fnPanic = recover()
		}
	}()
	return x.f.stepPending(p, x), true
}

// maxFreeWorkers bounds the idle-goroutine pool. Recycling wins on churny
// workloads where processes start and finish all run long, but a fan-in —
// hundreds of processes finishing with no new starts — would otherwise park
// hundreds of goroutines whose stacks stay live until the run ends, raising
// GC pressure for no benefit. Beyond the cap a finishing worker hands the
// baton off and exits immediately, exactly like the seed's one-goroutine-
// per-process scheduler.
const maxFreeWorkers = 64

// workerMain is the body of a pooled process goroutine. Entered holding the
// baton with a job bound; after the process function returns, the worker
// pools itself and keeps draining the calendar, so a process finish costs no
// goroutine switch either.
func (e *Env) workerMain(w *worker) {
	defer func() {
		if w.unwound != nil {
			w.unwound <- struct{}{} // Shutdown: the process's defers have run
		}
	}()
	for {
		p := w.proc
		p.fn(p)
		p.fn = nil
		p.finished = true
		e.recycleProc(p)
		if len(e.freeWorkers) >= maxFreeWorkers {
			// Pool full: hand the baton off and retire. dispatch cannot pick
			// this worker again — its process is finished and it is not in
			// the free pool — so dispSelf is impossible here.
			w.proc = nil
			e.drain(w)
			return
		}
		e.freeWorkers = append(e.freeWorkers, w)
		if e.drain(w) != dispSelf {
			<-w.resume
			if w.proc == nil {
				// Dismissed by stopWorkers; ack and unwind.
				e.mainResume <- struct{}{}
				return
			}
		}
	}
}

func (e *Env) takeWorker() *worker {
	n := len(e.freeWorkers)
	if n == 0 {
		return nil
	}
	w := e.freeWorkers[n-1]
	e.freeWorkers = e.freeWorkers[:n-1]
	return w
}

// stopWorkers dismisses the idle pooled goroutines and waits for them to
// unwind, and pools the idle transfer records (poolTransfers). Called when
// a run returns: recycling pays off within a run (where
// process churn lives), but an Env that has quiesced would otherwise pin its
// high-water goroutine count forever — benchmarks and sweeps build thousands
// of short-lived Envs. The join half matters as much as the dismissal: a
// merely-runnable zombie still references the Env from its stack, and a
// sweep that drops the Env and builds the next one would accumulate whole
// dead simulations in the live heap until the scheduler got around to
// running the zombies off.
func (e *Env) stopWorkers() {
	for _, w := range e.freeWorkers {
		w.proc = nil
		w.resume <- struct{}{}
	}
	for range e.freeWorkers {
		<-e.mainResume // ack: the worker is past its last reference to e
	}
	e.freeWorkers = e.freeWorkers[:0]
	e.poolTransfers()
	runtime.Gosched() // let the acked workers run their final return
}

// runLoop drains the calendar up to e.deadline, lending the baton out to
// process goroutines. A worker hands it back only once the calendar has
// drained (drain) or a callback panicked.
func (e *Env) runLoop() {
	e.running = true
	defer func() { e.running = false }()
	if e.dispatch(nil) == dispHandoff {
		<-e.mainResume
		e.rethrow()
	}
}

// Run executes events until the calendar is empty, then returns the final
// virtual time. If the calendar drains while processes are still blocked on
// non-timer waits (a lost signal, a full queue nobody drains, ...) Run
// panics with a deadlock report naming the stuck processes in name order: in
// a correct model every blocked process is eventually woken by a scheduled
// event.
func (e *Env) Run() Time {
	e.deadline = Time(math.MaxInt64)
	e.runLoop()
	if len(e.blocked) > 0 {
		panic(fmt.Sprintf("sim: deadlock at %v: %d process(es) blocked with no pending events: %v",
			e.now, len(e.blocked), e.blockedReport()))
	}
	e.stopWorkers()
	return e.now
}

// blockedReport lists the parked processes as "name (reason)", sorted by
// process name (then reason) — never in map or park order, so two runs of
// the same deadlocking model print the same report.
func (e *Env) blockedReport() []string {
	names := make([]string, 0, len(e.blocked))
	for _, b := range e.blocked {
		names = append(names, fmt.Sprintf("%s (%s)", b.p.name, b.why))
	}
	sort.Strings(names)
	return names
}

// RunUntil executes events with timestamps <= deadline and advances the
// clock to exactly the deadline. Events beyond the deadline stay queued.
func (e *Env) RunUntil(deadline Time) Time {
	e.deadline = deadline
	e.runLoop()
	if e.now < deadline {
		e.now = deadline
	}
	e.stopWorkers()
	return e.now
}

// Shutdown ends the simulation: it dismisses the idle worker pool and
// unwinds every process still parked — on a timer, an Event, a Resource or
// a Queue past a RunUntil deadline, or in a Group shard between windows.
// Each such goroutine runs its process's deferred calls through
// runtime.Goexit and exits, one at a time in calendar then park order, so
// a finished run pins neither goroutines nor, through their stacks, the
// model. The calendar is emptied: unstarted processes and pending
// continuations never run. Call it once a windowed run's
// results are read; the Env must not run again afterwards. On an Env that
// Run drained it only dismisses the pool.
func (e *Env) Shutdown() {
	if e.running {
		panic("sim: Shutdown from inside the simulation")
	}
	e.stopWorkers()
	parked := e.dropCalendar()
	for _, b := range e.blocked {
		if !b.p.finished {
			b.p.finished = true
			parked = append(parked, b.p)
		}
	}
	if len(parked) == 0 {
		return
	}
	// A deferred call that parks finds nothing to dispatch below this
	// deadline and hands the baton straight back.
	e.deadline = Time(math.MinInt64)
	acks := make(chan struct{})
	for _, p := range parked {
		p.w.unwound = acks
		close(p.w.resume)
		for unwinding := true; unwinding; {
			select {
			case <-acks:
				unwinding = false
			case <-e.mainResume:
				// A deferred call parked; its park sees the closed
				// channel and exits on.
			}
		}
	}
	// Deferred calls may have scheduled, spawned or parked: drop it all.
	e.dropCalendar()
	clear(e.blocked)
	e.blocked = e.blocked[:0]
	runtime.Gosched() // let the acked goroutines finish exiting
}

// dropCalendar empties the calendar for Shutdown. It returns each process
// a pending resume belongs to — one parked on a timer or in a transfer's
// delay or latency stage, or woken but not yet resumed — and marks it
// finished so it is listed once. Unstarted processes are dropped with
// their start events.
func (e *Env) dropCalendar() (parked []*Proc) {
	for {
		ev := e.q.pop(Time(math.MaxInt64))
		if ev == nil {
			return parked
		}
		if p := ev.proc; (ev.kind == evResume || ev.kind == evTransfer) && !p.finished {
			p.finished = true
			parked = append(parked, p)
		}
		e.q.release(ev)
	}
}

func (e *Env) pushBlocked(p *Proc, why string) {
	p.blockedIdx = len(e.blocked)
	e.blocked = append(e.blocked, blockedProc{p: p, why: why})
}

func (e *Env) popBlocked(p *Proc) {
	i := p.blockedIdx
	last := len(e.blocked) - 1
	if i != last {
		e.blocked[i] = e.blocked[last]
		e.blocked[i].p.blockedIdx = i
	}
	e.blocked[last] = blockedProc{}
	e.blocked = e.blocked[:last]
	p.blockedIdx = -1
}
