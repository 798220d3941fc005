package sim

import "runtime"

// Proc is a simulated process: a logical thread of execution interleaved
// with all other processes by the Env scheduler so that exactly one runs at
// a time. All blocking methods (Sleep, Wait, resource acquisition, ...) must
// be called from the process's own goroutine.
//
// The goroutine carrying a Proc is a pooled worker: when the process
// function returns, the goroutine is recycled for the next Env.Go instead of
// dying, and so is the Proc record itself, which is why Env.Go hands out no
// reference to it.
type Proc struct {
	env        *Env
	name       string
	fn         func(p *Proc)
	w          *worker
	blockedIdx int // index in env.blocked, -1 when not parked on a wait
	finished   bool

	// flowTag labels every fabric flow this process starts (multi-tenant
	// attribution; see Fabric.TagBytes). Backends stamp the interned handle
	// of their mount's tag at the entry of each data-path operation, so the
	// zero (untagged) handle costs nothing and the stamp is an integer
	// write.
	flowTag FlowTag

	// abort is the request-scoped cancellation token (see abort.go); nil
	// means the process never aborts, which costs one nil check per
	// cancellation point.
	abort *Abort
}

// worker is a recyclable process goroutine: a resume channel (the baton
// hand-off point) plus the process currently bound to it.
type worker struct {
	resume chan struct{}
	proc   *Proc
	// unwound is set by Env.Shutdown before it closes resume: the parked
	// process exits through runtime.Goexit, and workerMain acks on it.
	unwound chan<- struct{}
}

func bindWorker(w *worker, p *Proc) {
	w.proc = p
	p.w = w
}

// Env returns the environment the process runs in.
func (p *Proc) Env() *Env { return p.env }

// Name returns the process name (used in deadlock reports and traces).
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// SetFlowTag labels all fabric flows this process subsequently starts.
// Flows with distinct tags form distinct fair-share classes and their
// delivered bytes are attributed per tag (Fabric.TagBytes); the empty tag
// restores untagged operation. The string is interned on every call — hot
// per-operation stamping should intern once and use SetFlowTagID.
func (p *Proc) SetFlowTag(tag string) { p.flowTag = p.env.InternTag(tag) }

// SetFlowTagID stamps a pre-interned tag handle (see Env.InternTag): the
// allocation- and hash-free form of SetFlowTag for per-operation stamping.
func (p *Proc) SetFlowTagID(tag FlowTag) { p.flowTag = tag }

// FlowTag returns the process's current flow tag ("" when untagged).
func (p *Proc) FlowTag() string { return p.env.TagName(p.flowTag) }

// park hands control to the scheduler and blocks until some event resumes
// this process. The calling goroutine drains the calendar itself (see
// Env.dispatch and Env.drain): if the next wake-up belongs to this very
// process, park returns without a single channel operation; otherwise the
// baton goes directly to the resumed process's goroutine, or, once the
// calendar drains, to the next shard of a running Group or back to the Run
// caller. why is recorded for deadlock diagnostics; processes parked on
// timers pass "" and are not tracked (a timer always fires). A transfer
// parks with "" and the kernel lists the process once its flow starts
// (Fabric.TransferAfter), so park leaves the deadlock list by the index,
// not by why.
func (p *Proc) park(why string) {
	e := p.env
	if why != "" {
		e.pushBlocked(p, why)
	}
	if e.drain(p.w) != dispSelf {
		if _, ok := <-p.w.resume; !ok {
			runtime.Goexit() // Env.Shutdown: run the process's defers and exit
		}
	}
	if p.blockedIdx >= 0 {
		e.popBlocked(p)
	}
}

// wake schedules this process to resume at the current virtual time.
func (p *Proc) wake() {
	p.env.scheduleEvent(p.env.now, evResume, nil, p)
}

// Sleep suspends the process for duration d of virtual time.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	if d == 0 {
		return
	}
	p.env.scheduleEvent(p.env.now.Add(d), evResume, nil, p)
	p.park("")
}

// SleepUntil suspends the process until virtual time t (no-op if t is now or
// in the past).
func (p *Proc) SleepUntil(t Time) {
	if t <= p.env.now {
		return
	}
	p.env.scheduleEvent(t, evResume, nil, p)
	p.park("")
}

// Event is a one-shot broadcast signal. Processes Wait on it and
// continuations Notify on it; Fire releases all current and future
// waiters. The zero value is not usable; create with NewEvent.
type Event struct {
	env     *Env
	fired   bool
	waiters []waiter
	// w0 backs the single-waiter fast path: the first Wait or Notify
	// registers without a heap allocation (a Transfer's completion event
	// has exactly one waiter, and flows dominate event volume on large
	// sweeps).
	w0 [1]waiter
}

// waiter is one party Fire releases: a parked process, or a continuation
// registered with Notify. One list keeps both kinds in registration order,
// which is the order their wake-ups take sequence numbers.
type waiter struct {
	p  *Proc
	fn func()
}

// NewEvent returns an unfired event bound to env.
func NewEvent(env *Env) *Event { return &Event{env: env} }

// Init binds a zero-value (typically embedded) Event to env and resets it
// to the unfired state, so request records can reuse one Event allocation
// across pooled lifecycles.
func (ev *Event) Init(env *Env) {
	ev.env = env
	ev.Reset()
}

// Reset returns a fired event to the unfired state for reuse. Resetting an
// event that still has waiters — parked processes or pending continuations
// — would silently strand them, so that panics: it is always a lifecycle
// bug (the pool recycled a record something still waits on).
func (ev *Event) Reset() {
	if len(ev.waiters) != 0 {
		panic("sim: Event.Reset with waiters still parked")
	}
	ev.fired = false
}

// Fired reports whether the event has fired.
func (ev *Event) Fired() bool { return ev.fired }

// Fire triggers the event, waking all waiters. Firing twice is a no-op.
func (ev *Event) Fire() {
	if ev.fired {
		return
	}
	ev.fired = true
	for _, w := range ev.waiters {
		if w.p != nil {
			w.p.wake()
		} else {
			ev.env.scheduleEvent(ev.env.now, evFn, w.fn, nil)
		}
	}
	ev.waiters = nil
}

// Wait blocks the calling process until the event fires. Returns immediately
// if it already fired.
func (ev *Event) Wait(p *Proc) {
	if ev.fired {
		return
	}
	ev.addWaiter(p)
	p.park("event")
}

// Notify registers fn as a continuation of the event: Fire files fn on the
// calendar at its instant, in the place and with the sequence number a
// process woken by the same Fire would take, so turning a process that only
// waits into a continuation leaves the schedule unchanged. If the event has
// already fired, fn runs at once, as Wait returns at once. fn runs on
// whichever goroutine drains the calendar and must not block (MODEL.md
// §11, "Continuations").
func (ev *Event) Notify(fn func()) {
	if ev.fired {
		fn()
		return
	}
	ev.add(waiter{fn: fn})
}

func (ev *Event) addWaiter(p *Proc) { ev.add(waiter{p: p}) }

func (ev *Event) add(w waiter) {
	if ev.waiters == nil {
		ev.waiters = ev.w0[:0]
	}
	ev.waiters = append(ev.waiters, w)
}

// WaitGroup counts outstanding activities, like sync.WaitGroup but for
// simulated processes.
type WaitGroup struct {
	env   *Env
	count int
	done  *Event
}

// NewWaitGroup returns a WaitGroup bound to env.
func NewWaitGroup(env *Env) *WaitGroup {
	return &WaitGroup{env: env, done: NewEvent(env)}
}

// Add increments the counter by n.
func (wg *WaitGroup) Add(n int) { wg.count += n }

// Go starts fn as a process and tracks it in the group.
func (wg *WaitGroup) Go(name string, fn func(p *Proc)) {
	wg.Add(1)
	wg.env.Go(name, func(p *Proc) {
		defer wg.doneOne()
		fn(p)
	})
}

func (wg *WaitGroup) doneOne() {
	wg.count--
	if wg.count == 0 {
		wg.done.Fire()
		wg.done = NewEvent(wg.env) // re-arm for reuse
	}
}

// Wait blocks the calling process until the counter reaches zero. Returns
// immediately if it is already zero.
func (wg *WaitGroup) Wait(p *Proc) {
	if wg.count == 0 {
		return
	}
	wg.done.Wait(p)
}
