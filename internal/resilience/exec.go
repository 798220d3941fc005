package resilience

import (
	"storagesim/internal/sim"
)

// Request is one unit of work the policy layer supervises. Attempt must
// be re-runnable: retries and hedges invoke it again on a fresh process.
// Each invocation's process carries a per-attempt sim.Abort token, so
// everything the attempt does — fabric transfers, retry backoffs, stager
// waits — unwinds when the attempt loses a hedge race or misses its
// deadline.
type Request struct {
	// FlowID identifies the request for deterministic backoff jitter.
	FlowID uint64
	// Attempt performs the operation once on the given process.
	Attempt func(p *sim.Proc)
}

// Outcome is what Execute observed for one request.
type Outcome struct {
	// OK reports whether some attempt completed within its deadline.
	OK bool
	// Retries counts re-attempts after the first (≤ the retry budget).
	Retries int
	// Hedges counts speculative second attempts actually launched.
	Hedges int
	// HedgeWins counts attempts won by the hedge rather than the primary.
	HedgeWins int
	// Elapsed is the request's total residence time, backoffs included.
	Elapsed sim.Duration
}

// Call is the pooled form of a supervised request: one record carries the
// coordination state (completion event, abort tokens, attempt closures) for
// every lifecycle of a recycled request slot, so steady traffic executes
// the full deadline/retry/hedge machinery without allocating per request.
//
// A Call is reusable but not reentrant: ExecuteCall may be invoked again
// only after the previous invocation returned. Attempts can outlive the
// invocation that launched them (a loser unwinds at its next cancellation
// point, which may be after the coordinator gave up); the record must not
// be recycled while any attempt is live — poll Idle, or set OnIdle and
// call DeferRelease to be called back when the last straggler finishes.
type Call struct {
	// FlowID identifies the request for deterministic backoff jitter.
	FlowID uint64
	// Attempt performs the operation once on the given process. It must be
	// re-runnable; retries and hedges invoke it again on a fresh process.
	Attempt func(p *sim.Proc)
	// OnIdle, if set, runs when the live-attempt count reaches zero after
	// DeferRelease was called — the pool's recycle hook.
	OnIdle func()

	env  *sim.Env
	done sim.Event
	// ab0/ab1 are the round-0 abort tokens, embedded so the common case
	// (no retries) runs allocation-free. Later rounds allocate fresh
	// tokens: a round-0 loser may still be live and holding its token, and
	// resetting a token under a live attempt would corrupt the race guards.
	ab0, ab1 sim.Abort
	aborts   [2]*sim.Abort
	att      [2]func(ap *sim.Proc)
	onHedge  func()
	onDln    func()

	round  uint32 // retry round counter; stale attempts detect a moved-on call
	winner int8
	hedged bool
	live   int // attempts launched and not yet returned
	defRel bool
}

// Idle reports whether no attempt launched by this call is still running.
func (c *Call) Idle() bool { return c.live == 0 }

// DeferRelease arranges for OnIdle to run when the last live attempt
// returns. Call it (instead of recycling immediately) when ExecuteCall
// returned but Idle is false — a cancelled straggler still references the
// record.
func (c *Call) DeferRelease() { c.defRel = true }

// begin readies the record for a fresh request. The coordination closures
// are bound once per record lifetime — they capture only the receiver — so
// reuse costs no allocation.
func (c *Call) begin(env *sim.Env) {
	if c.env != env {
		c.env = env
		c.att[0] = func(ap *sim.Proc) { c.attemptBody(ap, 0) }
		c.att[1] = func(ap *sim.Proc) { c.attemptBody(ap, 1) }
		c.onHedge = func() {
			if c.done.Fired() {
				return
			}
			c.hedged = true
			c.launch(1)
		}
		c.onDln = func() {
			if c.done.Fired() {
				return
			}
			// Miss: cancel both attempts' in-flight work and resolve the
			// race as a loss. Work already performed stays billed.
			c.aborts[0].Fire()
			c.aborts[1].Fire()
			c.done.Fire()
		}
	}
	c.round = 0
	c.defRel = false
}

func (c *Call) launch(idx int) {
	c.live++
	c.env.GoPooled("resilience/attempt", c.att[idx])
}

// attemptBody is the shared body of both attempt slots. Exactly-one-
// completion is enforced by the guards: a loser that finishes after the
// race resolved (done fired, its abort fired, or the call moved on to a
// later round or lifecycle) returns without touching the shared state.
func (c *Call) attemptBody(ap *sim.Proc, idx int) {
	round := c.round
	ab := c.aborts[idx]
	ap.SetAbort(ab)
	c.Attempt(ap)
	if c.round == round && !c.done.Fired() && !ab.Fired() {
		c.winner = int8(idx)
		c.done.Fire()
	}
	c.live--
	if c.live == 0 && c.defRel {
		c.defRel = false
		if c.OnIdle != nil {
			c.OnIdle()
		}
	}
}

// runRound races one attempt (and, after hedgeDelay, an optional
// speculative twin) against the per-attempt deadline. It returns whether
// the attempt completed in time, whether a hedge launched, and whether the
// hedge won the race.
//
// Coordination is the record's one-shot done Event: sim processes must
// never wait on two Events at once, so the hedge trigger and the deadline
// ride timer callbacks (env.AfterFunc) that are cancelled as soon as the
// race resolves. Same-instant timer callbacks always run before the woken
// coordinator (their calendar entries predate the wake-up), so the
// done.Fired guards fully cover the cancel races.
func (c *Call) runRound(p *sim.Proc, pl Policy, hedgeDelay sim.Duration) (ok, hedged, hedgeWon bool) {
	env := c.env
	c.done.Init(env)
	c.winner = -1
	c.hedged = false
	if c.round == 0 {
		c.ab0.Reset()
		c.ab1.Reset()
		c.aborts[0] = &c.ab0
		c.aborts[1] = &c.ab1
	} else {
		c.aborts[0] = sim.NewAbort()
		c.aborts[1] = sim.NewAbort()
	}
	c.launch(0)
	var hedgeTimer, deadlineTimer sim.Timer
	if hedgeDelay > 0 {
		hedgeTimer = env.AfterFunc(hedgeDelay, c.onHedge)
	}
	if pl.Deadline > 0 {
		deadlineTimer = env.AfterFunc(pl.Deadline, c.onDln)
	}
	c.done.Wait(p)
	hedgeTimer.Cancel()
	deadlineTimer.Cancel()
	winner, hedgedOut := c.winner, c.hedged
	c.round++
	switch winner {
	case -1:
		return false, hedgedOut, false
	case 0:
		c.aborts[1].Fire() // cancel the hedge, if any is still running
		return true, hedgedOut, false
	default:
		c.aborts[0].Fire() // hedge won; cancel the primary
		return true, hedgedOut, true
	}
}

// ExecuteCall runs the call under the policy on behalf of p, blocking
// until the request completes or its budgets are exhausted. The breaker
// (nil for tenants without one) is consulted as a retry gate and fed
// intermediate misses; terminal accounting — Success/Failure with the
// admission-time probe flag — is the caller's, which also owns admission
// (Allow happened before ExecuteCall, so a shed request never gets here).
//
// hedgeDelay is the quantile-derived hedge trigger for this request's
// attempts; 0 disables hedging (cold sketch, or hedging not configured).
func ExecuteCall(p *sim.Proc, pl Policy, c *Call, hedgeDelay sim.Duration, br *Breaker) Outcome {
	start := p.Now()
	c.begin(p.Env())
	var out Outcome
	// timeout carries the un-jittered backoff from one retry to the next.
	var timeout sim.Duration
	for attempt := 0; ; attempt++ {
		ok, hedged, hedgeWon := c.runRound(p, pl, hedgeDelay)
		if hedged {
			out.Hedges++
		}
		if hedgeWon {
			out.HedgeWins++
		}
		if ok {
			out.OK = true
			break
		}
		rp := pl.Retry
		willRetry := rp.Enabled() && (rp.MaxRetries == 0 || attempt < rp.MaxRetries)
		var backoff sim.Duration
		if willRetry {
			backoff, timeout = rp.NextBackoff(c.FlowID, attempt+1, timeout)
			if rp.MaxElapsed > 0 && p.Now().Sub(start)+backoff >= rp.MaxElapsed {
				// The next attempt could not finish inside the residence
				// budget; give up now rather than burn a doomed attempt.
				willRetry = false
			}
		}
		if willRetry && br.Tripped() {
			// Fast-fail: the backend is known-bad, stop feeding it.
			willRetry = false
		}
		if !willRetry {
			break
		}
		br.AttemptMiss(p.Now())
		out.Retries++
		p.Sleep(backoff)
	}
	out.Elapsed = p.Now().Sub(start)
	return out
}

// Execute runs a one-shot request: the non-pooled convenience form of
// ExecuteCall (see Call for the reusable record the traffic engine pools).
func Execute(p *sim.Proc, pl Policy, r Request, hedgeDelay sim.Duration, br *Breaker) Outcome {
	c := &Call{FlowID: r.FlowID, Attempt: r.Attempt}
	return ExecuteCall(p, pl, c, hedgeDelay, br)
}
