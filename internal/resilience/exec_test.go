package resilience

import (
	"testing"

	"storagesim/internal/netsim"
	"storagesim/internal/sim"
	"storagesim/internal/stats"
)

func approx(got, want, tol float64) bool { return got > want-tol && got < want+tol }

// rig is the minimal simulated world for exercising a Call: one pipe
// wide enough (2 GB/s, per-flow cap 1 GB/s) that a primary and a hedge
// never contend, so attempt durations are pure size/1e9 arithmetic.
type rig struct {
	env  *sim.Env
	fab  *sim.Fabric
	link *sim.Pipe
}

func newRig() *rig {
	e := sim.NewEnv()
	fab := sim.NewFabric(e)
	return &rig{env: e, fab: fab, link: fab.NewPipe("link", 2e9, 0)}
}

// request builds a Call whose i-th attempt transfers sizes[i] bytes (the
// last size repeats). finished counts attempts that ran to the end
// un-aborted — the no-double-completion witness.
func (r *rig) request(sizes []float64, invocations, finished *int) *Call {
	return &Call{FlowID: 7, Attempt: func(ap *sim.Proc) {
		idx := *invocations
		*invocations++
		if idx >= len(sizes) {
			idx = len(sizes) - 1
		}
		r.fab.Transfer(ap, []*sim.Pipe{r.link}, sizes[idx], 1e9)
		if !ap.Aborted() {
			*finished++
		}
	}}
}

// run starts the call at time 0, as the traffic engine does, drains the
// calendar and returns the outcome its done callback received.
func (r *rig) run(c *Call, pl Policy, hedgeDelay sim.Duration, br *Breaker) (out Outcome) {
	r.env.Schedule(0, func() {
		c.Run(r.env, pl, hedgeDelay, br, func(o Outcome) { out = o })
	})
	r.env.Run()
	return out
}

// A fast request completes on the first attempt with nothing charged to
// the resilience machinery.
func TestExecuteFirstAttemptSuccess(t *testing.T) {
	r := newRig()
	var inv, fin int
	req := r.request([]float64{1e8}, &inv, &fin)
	out := r.run(req, Policy{Deadline: 300 * sim.Millisecond}, 0, nil)
	if !out.OK || out.Retries != 0 || out.Hedges != 0 {
		t.Fatalf("outcome = %+v, want clean first-attempt success", out)
	}
	if !approx(out.Elapsed.Seconds(), 0.1, 1e-6) {
		t.Fatalf("elapsed = %v, want 100ms", out.Elapsed)
	}
	if inv != 1 || fin != 1 {
		t.Fatalf("invocations/finished = %d/%d, want 1/1", inv, fin)
	}
}

// Deadline misses cancel the attempt's in-flight transfer and the retry
// budget bounds the attempts: 3 attempts (1 + 2 retries) each missing a
// 300 ms deadline, backoffs 100 ms then 200 ms, gives a 1.2 s residence
// and a terminal failure.
func TestExecuteRetryBudget(t *testing.T) {
	r := newRig()
	pl := Policy{
		Deadline: 300 * sim.Millisecond,
		Retry:    retry(100*sim.Millisecond, 2, 2),
	}
	var inv, fin int
	req := r.request([]float64{1e9}, &inv, &fin) // 1 s per attempt: always misses
	out := r.run(req, pl, 0, nil)
	if out.OK {
		t.Fatal("budget-exhausted request reported OK")
	}
	if out.Retries != 2 {
		t.Fatalf("retries = %d, want 2", out.Retries)
	}
	// 0.3 (miss) + 0.1 + 0.3 (miss) + 0.2 + 0.3 (miss) = 1.2 s.
	if !approx(out.Elapsed.Seconds(), 1.2, 1e-6) {
		t.Fatalf("elapsed = %v, want 1.2s", out.Elapsed)
	}
	if inv != 3 || fin != 0 {
		t.Fatalf("invocations/finished = %d/%d, want 3/0", inv, fin)
	}
	if r.env.Pending() != 0 {
		t.Fatalf("calendar retained %d events", r.env.Pending())
	}
}

// A tripped breaker cuts the retry loop immediately: fail fast, leave
// the backend alone.
func TestExecuteBreakerGatesRetries(t *testing.T) {
	r := newRig()
	br := NewBreaker(BreakerSpec{Failures: 1, Cooldown: time10s()})
	br.Failure(0, false) // pre-tripped
	pl := Policy{Deadline: 300 * sim.Millisecond, Retry: retry(100*sim.Millisecond, 2, 5)}
	var inv, fin int
	req := r.request([]float64{1e9}, &inv, &fin)
	out := r.run(req, pl, 0, br)
	if out.OK || out.Retries != 0 || inv != 1 {
		t.Fatalf("outcome %+v with %d invocations, want immediate terminal failure", out, inv)
	}
}

func time10s() sim.Duration { return 10 * sim.Second }

func retry(timeout sim.Duration, mult float64, budget int) (rp netsim.RetryPolicy) {
	rp.Timeout = timeout
	rp.Multiplier = mult
	rp.MaxRetries = budget
	return rp
}

func newLatencySketch() *stats.Sketch { return stats.NewSketch(0.01) }

// Hedging race, table-driven: whichever side wins, exactly one attempt
// completes (the loser's cancellation can never double-complete a
// request) and the loser's in-flight work is unwound.
func TestExecuteHedgeRace(t *testing.T) {
	cases := []struct {
		name       string
		sizes      []float64 // per-invocation transfer bytes at 1 GB/s
		hedgeDelay sim.Duration
		deadline   sim.Duration
		wantOK     bool
		wantHedges int
		wantWins   int
		wantSec    float64 // expected Elapsed
		wantInv    int
	}{
		{
			// Hedge launches at 50 ms but the primary (100 ms) still wins;
			// the hedge is cancelled mid-transfer.
			name: "primary-wins", sizes: []float64{1e8, 1e8},
			hedgeDelay: 50 * sim.Millisecond,
			wantOK:     true, wantHedges: 1, wantWins: 0, wantSec: 0.1, wantInv: 2,
		},
		{
			// Primary would take 1 s; the hedge (launched at 200 ms, 100 ms
			// long) wins at 300 ms and the primary is cancelled.
			name: "hedge-wins", sizes: []float64{1e9, 1e8},
			hedgeDelay: 200 * sim.Millisecond,
			wantOK:     true, wantHedges: 1, wantWins: 1, wantSec: 0.3, wantInv: 2,
		},
		{
			// Both sides outlive the deadline: the miss cancels primary and
			// hedge together and the request fails without retries.
			name: "deadline-kills-both", sizes: []float64{1e9, 1e9},
			hedgeDelay: 200 * sim.Millisecond, deadline: 500 * sim.Millisecond,
			wantOK: false, wantHedges: 1, wantWins: 0, wantSec: 0.5, wantInv: 2,
		},
		{
			// The primary finishes before the hedge delay elapses: the
			// cancelled hedge timer must never launch the twin.
			name: "hedge-never-launches", sizes: []float64{1e8, 1e8},
			hedgeDelay: 200 * sim.Millisecond,
			wantOK:     true, wantHedges: 0, wantWins: 0, wantSec: 0.1, wantInv: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig()
			var inv, fin int
			req := r.request(tc.sizes, &inv, &fin)
			out := r.run(req, Policy{Deadline: tc.deadline}, tc.hedgeDelay, nil)
			if out.OK != tc.wantOK || out.Hedges != tc.wantHedges || out.HedgeWins != tc.wantWins {
				t.Fatalf("outcome = %+v, want ok=%v hedges=%d wins=%d",
					out, tc.wantOK, tc.wantHedges, tc.wantWins)
			}
			if !approx(out.Elapsed.Seconds(), tc.wantSec, 1e-6) {
				t.Fatalf("elapsed = %v, want %.3fs", out.Elapsed, tc.wantSec)
			}
			if inv != tc.wantInv {
				t.Fatalf("invocations = %d, want %d", inv, tc.wantInv)
			}
			wantFin := 0
			if tc.wantOK {
				wantFin = 1
			}
			if fin != wantFin {
				t.Fatalf("attempts finishing un-aborted = %d, want %d (no double completion)", fin, wantFin)
			}
			if r.env.Pending() != 0 {
				t.Fatalf("calendar retained %d events after drain", r.env.Pending())
			}
		})
	}
}

// Hedge.Delay stays 0 on a cold sketch and tracks the configured
// quantile with the floor clamp once warmed.
func TestHedgeDelay(t *testing.T) {
	h := Hedge{Quantile: 0.9, MinSamples: 4, Floor: 50 * sim.Millisecond}
	if d := h.Delay(nil); d != 0 {
		t.Fatalf("nil sketch delay = %v", d)
	}
	sk := newLatencySketch()
	sk.Add(0.010)
	sk.Add(0.012)
	if d := h.Delay(sk); d != 0 {
		t.Fatalf("cold sketch (2 < 4 samples) delay = %v, want 0", d)
	}
	sk.Add(0.011)
	sk.Add(0.200)
	d := h.Delay(sk)
	if d <= 50*sim.Millisecond {
		t.Fatalf("warm delay = %v, want ≈ p90 (~200ms) above the floor", d)
	}
	// Floor clamp: all-fast sketch.
	fast := newLatencySketch()
	for i := 0; i < 8; i++ {
		fast.Add(0.001)
	}
	if d := h.Delay(fast); d != 50*sim.Millisecond {
		t.Fatalf("floored delay = %v, want 50ms", d)
	}
}

// TestCallRecyclesAbortTokens: a reused Call whose requests retry and hedge
// draws each round's abort tokens from its free list once warm, so the
// deadline, retry and hedge machinery allocates nothing per request. The
// attempts cycle through slow (a 10 ms transfer, past the 2 ms deadline)
// and fast (0.1 ms) ones: a slow primary and a slow hedge miss and retry,
// a slow primary and a fast hedge resolve on the hedge.
func TestCallRecyclesAbortTokens(t *testing.T) {
	r := newRig()
	pl := Policy{Deadline: 2 * sim.Millisecond, Retry: retry(sim.Millisecond, 2, 3)}
	inv := 0
	c := &Call{FlowID: 7, Attempt: func(ap *sim.Proc) {
		size := 1e5
		if k := inv % 5; k == 0 || k == 1 || k == 3 {
			size = 1e7
		}
		inv++
		r.fab.Transfer(ap, []*sim.Pipe{r.link}, size, 1e9)
	}}
	// A client that issues the next request once the record is idle.
	var total Outcome
	var next, done func()
	var settle func(Outcome)
	next = func() { c.Run(r.env, pl, 500*sim.Microsecond, nil, settle) }
	settle = func(out Outcome) {
		total.Retries += out.Retries
		total.Hedges += out.Hedges
		total.HedgeWins += out.HedgeWins
		done()
	}
	done = func() {
		if c.Idle() {
			next()
		} else {
			r.env.After(sim.Microsecond, done) // reuse the record only when idle
		}
	}
	r.env.Schedule(0, next)
	defer r.env.Shutdown()
	r.env.StepUntil(sim.Time(10 * sim.Second)) // grows the calendar's buckets and the pools
	allocs := testing.AllocsPerRun(20, func() { r.env.StepUntil(r.env.Now() + sim.Time(100*sim.Millisecond)) })
	if total.Retries == 0 || total.Hedges == 0 || total.HedgeWins == 0 {
		t.Fatalf("outcomes %+v: the rig must retry, hedge and win hedges", total)
	}
	if allocs != 0 {
		t.Fatalf("%.1f allocations per 100 ms of retried and hedged requests, want 0", allocs)
	}
}
