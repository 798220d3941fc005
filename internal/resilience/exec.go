package resilience

import (
	"storagesim/internal/sim"
)

// Outcome is what a Call observed for one request.
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

// Call is one supervised request and its coordinator. The coordinator is
// a continuation, not a process: it arms the hedge and deadline timers,
// waits on the round's done event through Event.Notify, and sleeps
// between retries on a calendar timer, so it costs no goroutine switch.
// It takes exactly the sequence numbers a coordinator process would take
// (one at the start, one per wake-up, one per backoff), so the schedule is
// the process form's (MODEL.md §15, "Determinism").
//
// One record carries the coordination state (completion event, abort
// tokens, attempt closures, continuations) for every lifecycle of a
// recycled request slot, so steady traffic executes the full
// deadline/retry/hedge machinery without allocating per request.
//
// A Call is reusable but not reentrant: Run may be invoked again only once
// the previous invocation's done callback was called. Attempts can outlive
// the invocation that launched them (a loser unwinds at its next
// cancellation point, which may be after the coordinator gave up); the
// record must not be recycled while any attempt is live — poll Idle, or
// set OnIdle and call DeferRelease to be called back when the last
// straggler finishes.
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
	// aborts are the current round's tokens, drawn from tokens: the free
	// list of tokens no live attempt holds. An attempt hands its token
	// back when it returns, and a round hands back its hedge token if no
	// hedge launched. A loser of an earlier round may still be live and
	// holding its token, which is therefore not on the list; resetting a
	// token under a live attempt would corrupt the race guards. The list
	// starts with the embedded pair own, in tokBuf, so a call allocates a
	// token only for a retry round that starts while a loser is live.
	aborts  [2]*sim.Abort
	tokens  []*sim.Abort
	own     [2]sim.Abort
	tokBuf  [2]*sim.Abort
	att     [2]func(ap *sim.Proc)
	onHedge func()
	onDln   func()
	// startFn and endFn are the coordinator's continuations, bound once:
	// a round's start (after a backoff) and its end (done fired).
	startFn func()
	endFn   func()

	round  uint32 // retry round counter; stale attempts detect a moved-on call
	winner int8
	hedged bool
	live   int // attempts launched and not yet returned
	defRel bool

	// The invocation's state between continuations.
	pl         Policy
	hedgeDelay sim.Duration
	br         *Breaker
	onDone     func(Outcome)
	start      sim.Time
	attempt    int
	// timeout carries the un-jittered backoff from one retry to the next.
	timeout sim.Duration
	out     Outcome
	timers  [2]sim.Timer // the round's hedge and deadline timers
}

// Idle reports whether no attempt launched by this call is still running.
func (c *Call) Idle() bool { return c.live == 0 }

// DeferRelease arranges for OnIdle to run when the last live attempt
// returns. Call it (instead of recycling immediately) when the done
// callback ran but Idle is false — a cancelled straggler still references
// the record.
func (c *Call) DeferRelease() { c.defRel = true }

// Run supervises the call under the policy, from the calendar: it starts
// the first round at once and returns, and done receives the outcome at
// the instant the request completes or its budgets are exhausted. The
// breaker (nil for tenants without one) is consulted as a retry gate and
// fed intermediate misses; terminal accounting — Success/Failure with the
// admission-time probe flag — is done's, and so is admission (Allow
// happened before Run, so a shed request never gets here).
//
// hedgeDelay is the quantile-derived hedge trigger for this request's
// attempts; 0 disables hedging (cold sketch, or hedging not configured).
// Run and done must not block: they run on the scheduler's stack. A
// caller that starts requests from the calendar files Run with
// env.Schedule at the arrival instant, where a coordinator process would
// have been started.
func (c *Call) Run(env *sim.Env, pl Policy, hedgeDelay sim.Duration, br *Breaker, done func(Outcome)) {
	c.begin(env)
	c.pl, c.hedgeDelay, c.br, c.onDone = pl, hedgeDelay, br, done
	c.start = env.Now()
	c.attempt, c.timeout, c.out = 0, 0, Outcome{}
	c.startRound()
}

// begin readies the record for a fresh request. The coordination closures
// are bound once per record lifetime — they capture only the receiver — so
// reuse costs no allocation.
func (c *Call) begin(env *sim.Env) {
	if c.env != env {
		c.env = env
		c.tokens = append(c.tokBuf[:0], &c.own[0], &c.own[1])
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
		c.startFn = c.startRound
		c.endFn = c.endRound
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
	c.tokens = append(c.tokens, ab)
	c.live--
	if c.live == 0 && c.defRel {
		c.defRel = false
		if c.OnIdle != nil {
			c.OnIdle()
		}
	}
}

// startRound races one attempt (and, after hedgeDelay, an optional
// speculative twin) against the per-attempt deadline; endRound runs when
// the race resolves.
//
// Coordination is the record's one-shot done Event: the hedge trigger and
// the deadline ride timer callbacks (env.After) that are cancelled as soon
// as the race resolves. Same-instant timer callbacks always run before the
// round's end (their calendar entries predate its wake-up), so the
// done.Fired guards fully cover the cancel races.
func (c *Call) startRound() {
	env := c.env
	c.done.Init(env)
	c.winner = -1
	c.hedged = false
	c.aborts[0] = c.token()
	c.aborts[1] = c.token()
	c.launch(0)
	c.timers = [2]sim.Timer{}
	if c.hedgeDelay > 0 {
		c.timers[0] = env.After(c.hedgeDelay, c.onHedge)
	}
	if c.pl.Deadline > 0 {
		c.timers[1] = env.After(c.pl.Deadline, c.onDln)
	}
	c.done.Notify(c.endFn)
}

// endRound settles a resolved race — cancelling the loser, if any — and
// either finishes the call or retries it after a backoff.
func (c *Call) endRound() {
	c.timers[0].Cancel()
	c.timers[1].Cancel()
	winner, hedged := c.winner, c.hedged
	c.round++
	if !hedged {
		c.tokens = append(c.tokens, c.aborts[1]) // no attempt holds it
	}
	if hedged {
		c.out.Hedges++
	}
	if winner >= 0 {
		// Cancel the loser: the hedge, if one is still running, or the
		// primary when the hedge won.
		c.aborts[1-winner].Fire()
		if winner == 1 {
			c.out.HedgeWins++
		}
		c.out.OK = true
		c.finish()
		return
	}
	now := c.env.Now()
	rp := c.pl.Retry
	willRetry := rp.Enabled() && (rp.MaxRetries == 0 || c.attempt < rp.MaxRetries)
	var backoff sim.Duration
	if willRetry {
		backoff, c.timeout = rp.NextBackoff(c.FlowID, c.attempt+1, c.timeout)
		if rp.MaxElapsed > 0 && now.Sub(c.start)+backoff >= rp.MaxElapsed {
			// The next attempt could not finish inside the residence
			// budget; give up now rather than burn a doomed attempt.
			willRetry = false
		}
	}
	if willRetry && c.br.Tripped() {
		// Fast-fail: the backend is known-bad, stop feeding it.
		willRetry = false
	}
	if !willRetry {
		c.finish()
		return
	}
	c.br.AttemptMiss(now)
	c.out.Retries++
	c.attempt++
	if backoff == 0 {
		c.startRound() // a zero sleep files nothing
		return
	}
	c.env.After(backoff, c.startFn)
}

// finish hands the outcome to the invocation's done callback, the
// coordinator's last action: done may recycle the record.
func (c *Call) finish() {
	c.out.Elapsed = c.env.Now().Sub(c.start)
	done := c.onDone
	c.onDone = nil
	done(c.out)
}

// token draws a reset abort token from the free list, or a new one.
func (c *Call) token() *sim.Abort {
	n := len(c.tokens)
	if n == 0 {
		return sim.NewAbort()
	}
	ab := c.tokens[n-1]
	c.tokens = c.tokens[:n-1]
	ab.Reset()
	return ab
}
