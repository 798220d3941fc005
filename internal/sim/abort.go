package sim

// Abort is a request-scoped cancellation token: the kernel half of the
// client resilience layer's deadline/hedging support. A coordinator (a
// deadline timer callback, a hedge arbiter) fires the token once; every
// process carrying it observes the firing at its next cancellation point
// and unwinds, and any in-flight fabric transfer registered on the token is
// removed from its flow class immediately, returning its bandwidth to the
// fair-share pool.
//
// Tokens are single-threaded simulation state like everything else in the
// kernel: they are created, fired and polled only from simulated processes
// and scheduler callbacks, which the Env serializes. Firing is idempotent,
// and a nil *Abort is a valid "never aborted" token — all methods are
// nil-safe, so unpoliced requests pay one nil check and nothing else.
type Abort struct {
	fired bool
	// flows holds the in-flight fabric transfers registered with
	// onFireFlow, the token's only hooks. Hooks are never deregistered:
	// each one is a no-op once its flow completed, and the slice dies with
	// the request (or is truncated by Reset when the token is pooled), so
	// a request accumulates one hook per transfer it starts, bounded by
	// its op count — never by simulation length. Each entry snapshots the
	// flow's pool generation, so a hook outliving its (completed, recycled)
	// flow can never abort the pooled object's next incarnation.
	flows []flowRef
}

// flowRef pins one in-flight fabric flow to an abort token.
type flowRef struct {
	fab *Fabric
	fl  *Flow
	gen uint64
}

// NewAbort returns an unfired token.
func NewAbort() *Abort { return &Abort{} }

// Reset returns a token to the unfired state with no registered hooks, so
// pooled request records can reuse one token allocation per lifecycle. The
// caller owns the proof that no in-flight operation still carries the
// token — for the request pool that is the record's live-attempt count.
func (a *Abort) Reset() {
	a.fired = false
	a.flows = a.flows[:0]
}

// Fired reports whether the token has fired. Nil-safe.
func (a *Abort) Fired() bool { return a != nil && a.fired }

// Fire triggers the token: every registered flow is aborted (in
// registration order, deterministically) and subsequent Fired calls report
// true. Firing twice — or firing a nil token — is a no-op.
func (a *Abort) Fire() {
	if a == nil || a.fired {
		return
	}
	a.fired = true
	flows := a.flows
	a.flows = a.flows[:0]
	for _, fr := range flows {
		if fr.fl.gen == fr.gen {
			fr.fab.abortFlow(fr.fl)
		}
	}
}

// onFireFlow registers cancellation of an in-flight fabric flow, the hook
// behind Transfer: a fired token aborts the flow at once, an unfired one
// when it fires. The generation snapshot makes a hook that outlives its
// flow's pooled lifetime an explicit no-op.
func (a *Abort) onFireFlow(f *Fabric, fl *Flow) {
	if a == nil {
		return
	}
	if a.fired {
		f.abortFlow(fl)
		return
	}
	a.flows = append(a.flows, flowRef{fab: f, fl: fl, gen: fl.gen})
}

// SetAbort attaches a cancellation token to the process: blocking
// operations that support cancellation (fabric transfers, retry backoff
// loops, multi-op client streams) poll it and unwind early once it fires.
// nil detaches. The token is carried like the flow tag — per process, not
// inherited by processes this one spawns; spawners propagate it explicitly
// when a child acts on the request's behalf.
func (p *Proc) SetAbort(a *Abort) { p.abort = a }

// AbortSignal returns the process's attached token (nil when none).
func (p *Proc) AbortSignal() *Abort { return p.abort }

// Aborted reports whether the process carries a fired abort token.
func (p *Proc) Aborted() bool { return p.abort != nil && p.abort.fired }

// abortFlow removes an in-flight flow from the fabric before it completes:
// the flow leaves its class, its pipes' flow counts drop, the region is
// re-solved, and the flow's done event fires so its waiter unwinds. Bytes
// already moved stay moved (and stay attributed to the flow's tag) — an
// aborted transfer wasted real bandwidth, which is exactly what makes
// deadline-abandoned work expensive in a retry storm. Aborting a flow that
// already completed is a no-op, so cancellation hooks may race benignly
// with normal completion.
func (f *Fabric) abortFlow(fl *Flow) {
	if fl.done.fired {
		return
	}
	f.advance()
	c := fl.class
	c.removeMember(fl)
	c.count--
	for _, pp := range c.pipes {
		pp.nflows--
		f.touch(pp)
	}
	if c.count == 0 {
		f.retireClass(c)
	}
	f.liveFlows--
	f.markDirty()
	fl.done.Fire()
	f.releaseFlow(fl)
}
