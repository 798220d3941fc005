package netsim

import (
	"fmt"

	"storagesim/internal/sim"
	"storagesim/internal/stats"
)

// RetryPolicy models the NFS client's RPC retransmission behaviour against
// an unresponsive server: an initial timeout (the mount's timeo), an
// exponential backoff multiplier, a retransmit-interval ceiling, and an
// optional retry budget (soft mounts give up; hard mounts — the HPC
// default, and what the paper's deployments use — retry forever).
//
// Op-level workloads consult the policy when their resolved path has died:
// every retransmission round costs virtual time, which is how a CNode or
// OSS failure shows up as a throughput dip instead of an instant, free
// failover.
type RetryPolicy struct {
	// Timeout is the first retransmit timeout (NFS timeo; 0 disables the
	// retry model entirely — failover is instantaneous, the seed behaviour).
	Timeout sim.Duration
	// Multiplier grows the timeout each round (2 = exponential backoff).
	// Values below 1 are treated as 1 (constant retransmit interval).
	Multiplier float64
	// MaxTimeout caps the per-round timeout (retransmit ceiling); 0 means
	// uncapped.
	MaxTimeout sim.Duration
	// MaxRetries bounds the rounds before the client errors out (soft
	// mount); 0 retries forever (hard mount).
	MaxRetries int
	// MaxElapsed caps the total virtual time a single Retry call may spend
	// across all rounds — the timeo×retrans envelope as a wall-clock budget,
	// which exponential backoff alone cannot bound. The final round is
	// truncated so the cap is exact; 0 means uncapped.
	MaxElapsed sim.Duration
	// Jitter adds a per-round delay drawn uniformly from [0, Jitter),
	// derived deterministically from the flow id and round number, so
	// concurrent clients retrying against the same dead server desynchronize
	// without giving up reproducibility. 0 disables jitter.
	Jitter sim.Duration
}

// Enabled reports whether the policy models retransmission at all.
func (rp RetryPolicy) Enabled() bool { return rp.Timeout > 0 }

// Validate reports the first problem with the policy.
func (rp RetryPolicy) Validate() error {
	switch {
	case rp.Timeout < 0:
		return fmt.Errorf("netsim: negative retry timeout")
	case rp.MaxTimeout < 0:
		return fmt.Errorf("netsim: negative retry timeout cap")
	case rp.MaxRetries < 0:
		return fmt.Errorf("netsim: negative retry budget")
	case rp.MaxElapsed < 0:
		return fmt.Errorf("netsim: negative retry elapsed cap")
	case rp.Jitter < 0:
		return fmt.Errorf("netsim: negative retry jitter")
	}
	return nil
}

// retryJitter derives the bounded deterministic jitter for one round of one
// flow: the shared SplitMix64 finalizer (stats.Mix64) over (flow, round),
// reduced to [0, bound). Pure function of its inputs, so a fixed seed
// reproduces every retry timeline byte-for-byte.
func retryJitter(flowID uint64, round int, bound sim.Duration) sim.Duration {
	if bound <= 0 {
		return 0
	}
	z := stats.Mix64(flowID*0x9e3779b97f4a7c15 + uint64(round)*0xbf58476d1ce4e5b9)
	return sim.Duration(z % uint64(bound))
}

// Retry blocks p through timeout-plus-backoff rounds until healthy reports
// true, returning the number of retransmissions paid. Call it only when the
// path is (or just was) dead: the first round's timeout is always charged —
// it models the RPC that was already in flight when the server vanished.
// healthy is polled after each round, so a server that recovers mid-backoff
// is noticed at the next retransmit, exactly like a real NFS client.
//
// flowID identifies the retrying client (mount index, flow id) and seeds
// the per-round jitter; callers without a natural id may pass 0.
//
// With MaxRetries > 0 the call gives up after that many rounds and returns
// ok=false (the soft-mount EIO); MaxElapsed > 0 bounds the total time spent
// the same way, truncating the last round to land exactly on the budget.
// With neither set it retries forever, which in a simulation with a finite
// fault schedule always terminates.
//
// Retry is a cancellation point: a fired abort token on p (the resilience
// layer's per-request deadline) ends the loop after the current round —
// the retransmission that was in flight is sunk cost, everything after it
// is abandoned with the request.
func (rp RetryPolicy) Retry(p *sim.Proc, flowID uint64, healthy func() bool) (retries int, ok bool) {
	if !rp.Enabled() {
		return 0, healthy()
	}
	timeout := rp.Timeout
	mult := rp.Multiplier
	if mult < 1 {
		mult = 1
	}
	var elapsed sim.Duration
	for {
		retries++
		if rp.MaxRetries > 0 && retries > rp.MaxRetries {
			return retries - 1, false
		}
		round := timeout + retryJitter(flowID, retries, rp.Jitter)
		exhausted := false
		if rp.MaxElapsed > 0 && elapsed+round >= rp.MaxElapsed {
			round = rp.MaxElapsed - elapsed
			exhausted = true
		}
		p.Sleep(round)
		elapsed += round
		if healthy() {
			return retries, true
		}
		if exhausted || p.Aborted() {
			return retries, false
		}
		timeout = sim.Duration(float64(timeout) * mult)
		if rp.MaxTimeout > 0 && timeout > rp.MaxTimeout {
			timeout = rp.MaxTimeout
		}
	}
}

// Backoff returns the delay a client pauses before re-attempt number
// `attempt` (1-based) of one request: Timeout·Multiplier^(attempt-1),
// capped at MaxTimeout, plus the same deterministic per-round jitter Retry
// charges. This is the client-resilience half of the policy — Retry blocks
// through server-side retransmission rounds, Backoff prices the pause
// between application-level attempts after a deadline miss, so a tenant's
// `retry_policy` spec block drives both with one parameter set. A disabled
// policy (or attempt < 1) backs off zero. It costs O(attempt); a request
// that retries in sequence steps with NextBackoff instead.
func (rp RetryPolicy) Backoff(flowID uint64, attempt int) sim.Duration {
	if !rp.Enabled() || attempt < 1 {
		return 0
	}
	d := rp.Timeout
	for i := 1; i < attempt && !rp.capped(d); i++ {
		d = rp.grow(d)
	}
	return rp.pause(flowID, attempt, d)
}

// NextBackoff is Backoff for attempt given the un-jittered timeout that
// NextBackoff returned for attempt-1 (ignored when attempt is 1). It
// returns the pause and the timeout to carry to the next attempt, so a
// request's k-th retry costs one step instead of k; the steps are
// Backoff's float operations in Backoff's order, so the pauses are
// bit-identical.
func (rp RetryPolicy) NextBackoff(flowID uint64, attempt int, prev sim.Duration) (pause, timeout sim.Duration) {
	if !rp.Enabled() || attempt < 1 {
		return 0, 0
	}
	timeout = rp.Timeout
	if attempt > 1 {
		timeout = rp.grow(prev)
	}
	return rp.pause(flowID, attempt, timeout), timeout
}

// capped reports whether the timeout d has reached the ceiling, after
// which it stops growing.
func (rp RetryPolicy) capped(d sim.Duration) bool { return rp.MaxTimeout > 0 && d >= rp.MaxTimeout }

// grow returns the timeout of the round after one whose timeout was d.
func (rp RetryPolicy) grow(d sim.Duration) sim.Duration {
	if rp.capped(d) {
		return d
	}
	return sim.Duration(float64(d) * max(rp.Multiplier, 1))
}

// pause is the backoff of attempt whose un-jittered timeout is d.
func (rp RetryPolicy) pause(flowID uint64, attempt int, d sim.Duration) sim.Duration {
	if rp.MaxTimeout > 0 && d > rp.MaxTimeout {
		d = rp.MaxTimeout
	}
	return d + retryJitter(flowID, attempt, rp.Jitter)
}
