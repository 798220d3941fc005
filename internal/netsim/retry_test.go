package netsim

import (
	"testing"
	"time"

	"storagesim/internal/sim"
)

// runRetry drives one Retry call to completion and reports its outcome and
// the virtual time it consumed. healthyAfter < 0 means never healthy.
func runRetry(t *testing.T, rp RetryPolicy, flowID uint64, healthyAfter sim.Duration) (retries int, ok bool, took sim.Duration) {
	t.Helper()
	env := sim.NewEnv()
	env.Go("retry", func(p *sim.Proc) {
		start := p.Now()
		retries, ok = rp.Retry(p, flowID, func() bool {
			return healthyAfter >= 0 && p.Now() >= sim.Time(healthyAfter)
		})
		took = sim.Duration(p.Now() - start)
	})
	env.Run()
	return retries, ok, took
}

func TestRetryTable(t *testing.T) {
	cases := []struct {
		name         string
		rp           RetryPolicy
		healthyAfter sim.Duration
		wantRetries  int
		wantOK       bool
		wantTook     sim.Duration
	}{
		{
			name:         "disabled policy is a pure health poll",
			rp:           RetryPolicy{},
			healthyAfter: 0,
			wantRetries:  0, wantOK: true, wantTook: 0,
		},
		{
			name:         "single round when server is back",
			rp:           RetryPolicy{Timeout: time.Millisecond, Multiplier: 2},
			healthyAfter: 0,
			wantRetries:  1, wantOK: true, wantTook: time.Millisecond,
		},
		{
			name: "exponential rounds accumulate 1+2+4 ms",
			rp:   RetryPolicy{Timeout: time.Millisecond, Multiplier: 2},
			// healthy only after 5 ms: rounds end at 1, 3, 7 ms.
			healthyAfter: 5 * time.Millisecond,
			wantRetries:  3, wantOK: true, wantTook: 7 * time.Millisecond,
		},
		{
			name: "ceiling caps the round length",
			rp: RetryPolicy{Timeout: time.Millisecond, Multiplier: 10,
				MaxTimeout: 2 * time.Millisecond},
			// rounds end at 1, 3, 5, 7 ms (second round onward capped at 2).
			healthyAfter: 6 * time.Millisecond,
			wantRetries:  4, wantOK: true, wantTook: 7 * time.Millisecond,
		},
		{
			name: "soft mount gives up after MaxRetries",
			rp: RetryPolicy{Timeout: time.Millisecond, Multiplier: 2,
				MaxRetries: 3},
			healthyAfter: -1,
			wantRetries:  3, wantOK: false, wantTook: 7 * time.Millisecond,
		},
		{
			name: "MaxElapsed caps total time exactly",
			rp: RetryPolicy{Timeout: time.Millisecond, Multiplier: 2,
				MaxElapsed: 5 * time.Millisecond},
			healthyAfter: -1,
			// rounds of 1, 2 ms spend 3 ms; the 4 ms third round is truncated
			// to 2 ms so the call lands exactly on the 5 ms budget.
			wantRetries: 3, wantOK: false, wantTook: 5 * time.Millisecond,
		},
		{
			name: "truncated final round still notices recovery",
			rp: RetryPolicy{Timeout: time.Millisecond, Multiplier: 2,
				MaxElapsed: 5 * time.Millisecond},
			healthyAfter: 4 * time.Millisecond,
			wantRetries:  3, wantOK: true, wantTook: 5 * time.Millisecond,
		},
		{
			name: "MaxRetries wins when tighter than MaxElapsed",
			rp: RetryPolicy{Timeout: time.Millisecond, Multiplier: 2,
				MaxRetries: 2, MaxElapsed: time.Second},
			healthyAfter: -1,
			wantRetries:  2, wantOK: false, wantTook: 3 * time.Millisecond,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			retries, ok, took := runRetry(t, tc.rp, 0, tc.healthyAfter)
			if retries != tc.wantRetries || ok != tc.wantOK || took != tc.wantTook {
				t.Errorf("got retries=%d ok=%v took=%v; want retries=%d ok=%v took=%v",
					retries, ok, took, tc.wantRetries, tc.wantOK, tc.wantTook)
			}
		})
	}
}

func TestRetryJitterBoundedAndDeterministic(t *testing.T) {
	bound := 500 * time.Microsecond
	seen := map[sim.Duration]bool{}
	for flow := uint64(0); flow < 64; flow++ {
		for round := 1; round <= 4; round++ {
			j := retryJitter(flow, round, bound)
			if j < 0 || j >= bound {
				t.Fatalf("jitter %v outside [0, %v) for flow %d round %d", j, bound, flow, round)
			}
			if j2 := retryJitter(flow, round, bound); j2 != j {
				t.Fatalf("jitter not deterministic for flow %d round %d: %v then %v", flow, round, j, j2)
			}
			seen[j] = true
		}
	}
	// 256 draws from a 500k-wide range should not all collide: the jitter
	// must actually desynchronize distinct flows.
	if len(seen) < 64 {
		t.Errorf("only %d distinct jitter values across 256 (flow, round) pairs", len(seen))
	}
	if retryJitter(1, 1, 0) != 0 {
		t.Errorf("zero bound must disable jitter")
	}
}

func TestRetryJitterDesynchronizesFlows(t *testing.T) {
	rp := RetryPolicy{Timeout: time.Millisecond, Multiplier: 2, Jitter: 500 * time.Microsecond}
	_, _, tookA := runRetry(t, rp, 1, 10*time.Millisecond)
	_, _, tookB := runRetry(t, rp, 2, 10*time.Millisecond)
	if tookA == tookB {
		t.Errorf("flows 1 and 2 retried in lockstep (%v); jitter should separate them", tookA)
	}
	// Same flow id replays the identical timeline.
	_, _, tookA2 := runRetry(t, rp, 1, 10*time.Millisecond)
	if tookA != tookA2 {
		t.Errorf("flow 1 timeline not reproducible: %v then %v", tookA, tookA2)
	}
}

func TestRetryPolicyValidate(t *testing.T) {
	cases := []struct {
		name string
		rp   RetryPolicy
		ok   bool
	}{
		{"zero value", RetryPolicy{}, true},
		{"full policy", RetryPolicy{Timeout: time.Millisecond, Multiplier: 2,
			MaxTimeout: time.Second, MaxRetries: 5, MaxElapsed: time.Minute,
			Jitter: time.Millisecond}, true},
		{"negative timeout", RetryPolicy{Timeout: -1}, false},
		{"negative cap", RetryPolicy{MaxTimeout: -1}, false},
		{"negative budget", RetryPolicy{MaxRetries: -1}, false},
		{"negative elapsed cap", RetryPolicy{MaxElapsed: -1}, false},
		{"negative jitter", RetryPolicy{Jitter: -1}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.rp.Validate(); (err == nil) != tc.ok {
				t.Errorf("Validate() = %v, want ok=%v", err, tc.ok)
			}
		})
	}
}

// TestNextBackoffMatchesBackoff holds the carried form to the closed form:
// stepping the timeout from one attempt to the next must give Backoff's
// pause bit for bit, through the ceiling and through int64 overflow.
func TestNextBackoffMatchesBackoff(t *testing.T) {
	for _, tc := range []struct {
		name      string
		rp        RetryPolicy
		overflows bool
	}{
		{name: "uncapped x1", rp: RetryPolicy{Timeout: 10 * time.Millisecond, Multiplier: 1, Jitter: time.Millisecond}},
		{name: "capped x2", rp: RetryPolicy{Timeout: time.Millisecond, Multiplier: 2, MaxTimeout: time.Second, Jitter: 100 * time.Microsecond}},
		{name: "uncapped x2 overflow", rp: RetryPolicy{Timeout: time.Millisecond, Multiplier: 2}, overflows: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var pause, timeout, prev sim.Duration
			overflowed := false
			for k := 1; k <= 1000; k++ {
				pause, timeout = tc.rp.NextBackoff(42, k, timeout)
				if want := tc.rp.Backoff(42, k); pause != want {
					t.Fatalf("attempt %d: carried backoff %d, Backoff %d", k, pause, want)
				}
				if k > 1 && pause != 2*prev {
					overflowed = true
				}
				prev = pause
			}
			if tc.overflows && !overflowed {
				t.Fatal("the doubling never overflowed; the run is too short to test it")
			}
		})
	}
}
