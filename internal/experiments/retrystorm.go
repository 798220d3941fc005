package experiments

import (
	"fmt"
	"time"

	"storagesim/internal/faults"
	"storagesim/internal/netsim"
	"storagesim/internal/resilience"
	"storagesim/internal/sim"
	"storagesim/internal/stats"
	"storagesim/internal/traffic"
)

// Retry-storm metastability study (Bronson et al., "Metastable Failures in
// Distributed Systems"; Google SRE, "Addressing Cascading Failures"): a
// transient link brownout pushes every in-flight request past its
// deadline; clients that retry without a budget convert the transient into
// sustained self-inflicted load, so the system stays collapsed after the
// fault clears — the retry traffic alone keeps attempts missing their
// deadlines. The same trigger against clients with bounded retry budgets,
// jittered backoff and a circuit breaker costs a dip and a clean recovery.
//
// The study runs the two client policies over the same deployment, fault
// schedule and seed, and reports a bucketed goodput/effort timeline. With
// a fixed seed the whole timeline is byte-deterministic — the quick
// variant is pinned as a golden across all three kernel builds.

// Retry-storm timeline constants. The fault window [stormFaultAt,
// stormRestoreAt) derates the deployment's backend links to stormFactor
// of nominal; buckets are stormBucket wide.
const (
	stormFaultAt   = 1500 * time.Millisecond
	stormRestoreAt = 2500 * time.Millisecond
	stormBucket    = 250 * time.Millisecond
)

// RetryStormResult is the study's outcome: the rendered panels plus the
// scalar goodputs (bytes/s) the acceptance thresholds are stated over.
// Nominal is measured on the healthy pre-fault window of each variant,
// Post on the final two seconds — well after the fault cleared.
type RetryStormResult struct {
	Panels []Panel
	// NaiveNominal/BudgetedNominal: pre-fault goodput of each variant.
	NaiveNominal, BudgetedNominal float64
	// NaivePost/BudgetedPost: goodput on the post-recovery window.
	NaivePost, BudgetedPost float64
	// NaiveReport/BudgetedReport: the full tenant reports, for the
	// breaker/retry counters.
	NaiveReport, BudgetedReport traffic.TenantReport
}

// retryStormSpec is the single-tenant client population of the study:
// 600 req/s of 1 MiB writes — a few percent of the deployment's healthy
// capacity, so nominal service is uncontended and fast. naive arms an
// unbounded constant-interval retry loop (the hard-mount default); the
// budgeted variant arms the full resilience stack: a bounded budget,
// exponential jittered backoff and a circuit breaker.
func retryStormSpec(naive bool) traffic.Spec {
	t := traffic.Tenant{
		Name: "client", Clients: 100_000, Workload: traffic.SeqWrite,
		Arrival:      traffic.Arrival{Kind: traffic.Poisson, Rate: 6e-3}, // 600 req/s aggregate
		RequestBytes: 1 << 20, IOBytes: 1 << 20,
		MaxInflight: 1024,
	}
	if naive {
		t.Resilience = resilience.Policy{
			Deadline: 10 * time.Millisecond,
			// Retry forever at a constant 5 ms interval: the metastable
			// configuration — every miss immediately re-offers the work.
			Retry: netsim.RetryPolicy{Timeout: 5 * time.Millisecond, Multiplier: 1, MaxRetries: 0},
		}
	} else {
		t.Resilience = resilience.Policy{
			Deadline: 10 * time.Millisecond,
			Retry: netsim.RetryPolicy{
				Timeout: 20 * time.Millisecond, Multiplier: 2,
				MaxTimeout: 200 * time.Millisecond, MaxRetries: 2,
				Jitter: 10 * time.Millisecond,
			},
			Breaker: resilience.BreakerSpec{
				Failures: 10, Cooldown: 200 * time.Millisecond,
				Probes: 4, Successes: 5,
			},
		}
	}
	return traffic.Spec{Tenants: []traffic.Tenant{t}}
}

// stormTimeline is one variant's bucketed observer accumulation.
type stormTimeline struct {
	goodput timeline // bytes completed per bucket
	retries timeline // retries reported by terminal outcomes per bucket
}

// runRetryStorm runs one variant over the deployment and returns its
// timeline and tenant report.
func runRetryStorm(naive bool, window time.Duration, seed uint64) (stormTimeline, traffic.TenantReport, error) {
	nb := int(window / stormBucket)
	tl := stormTimeline{goodput: newTimeline(stormBucket, nb), retries: newTimeline(stormBucket, nb)}
	cfg := traffic.Config{
		Spec:     retryStormSpec(naive),
		Duration: window,
		Seed:     seed,
		OutcomeObserver: func(ev traffic.OutcomeEvent) {
			if ev.Kind == traffic.OutcomeCompleted {
				tl.goodput.add(ev.At, float64(ev.Bytes))
			}
			tl.retries.add(ev.At, float64(ev.Retries))
		},
	}
	sched := faults.Schedule{Events: []faults.Event{
		{At: sim.Duration(stormFaultAt), Kind: faults.LinkDerate, Factor: 0.02},
		{At: sim.Duration(stormRestoreAt), Kind: faults.LinkRestore},
	}}
	rep, _, err := RunTrafficWithFaults("Wombat", VAST, 4, cfg, sched)
	if err != nil {
		return tl, traffic.TenantReport{}, err
	}
	return tl, rep.Tenants[0], nil
}

// windowMean averages a per-bucket series (bytes/bucket) over [from, to),
// returning a rate in bytes/s.
func (tl stormTimeline) windowMean(from, to time.Duration) float64 {
	lo, hi := int(from/stormBucket), int(to/stormBucket)
	if hi > len(tl.goodput.sums) {
		hi = len(tl.goodput.sums)
	}
	var sum float64
	for b := lo; b < hi; b++ {
		sum += tl.goodput.sums[b]
	}
	return sum / time.Duration((hi-lo)*int(stormBucket)).Seconds()
}

// RetryStormStudy contrasts unbounded retries against the budgeted
// resilience stack under the same 1 s link brownout, on the vast/Wombat
// deployment. Quick shortens the post-recovery tail (the collapse is
// visible either way); the full run holds the tail longer.
func RetryStormStudy(opts Options) (RetryStormResult, error) {
	opts = opts.withDefaults()
	window := 8 * time.Second
	if opts.Quick {
		window = 6 * time.Second
	}
	type run struct {
		tl  stormTimeline
		rep traffic.TenantReport
	}
	runs, err := runPoints(2, func(i int) (run, error) {
		tl, rep, err := runRetryStorm(i == 0, window, opts.Seed)
		return run{tl, rep}, err
	})
	if err != nil {
		return RetryStormResult{}, err
	}
	naive, naiveRep := runs[0].tl, runs[0].rep
	budgeted, budgetedRep := runs[1].tl, runs[1].rep

	goodput := Panel{
		ID:     "retrystorm-goodput",
		Title:  "Goodput through a 1s link brownout: unbounded retries vs budgeted+breaker",
		XLabel: "t (s)",
		YLabel: "MB/s",
	}
	effort := Panel{
		ID:     "retrystorm-effort",
		Title:  "Retries reported by terminal outcomes per bucket",
		XLabel: "t (s)",
		YLabel: "retries",
	}
	variants := []struct {
		name string
		tl   stormTimeline
	}{{"naive", naive}, {"budgeted", budgeted}}
	for _, v := range variants {
		gp := stats.Series{Name: v.name}
		rt := stats.Series{Name: v.name}
		for b, bytes := range v.tl.goodput.sums {
			x := (time.Duration(b+1) * stormBucket).Seconds()
			gp.Points = append(gp.Points, stats.Point{X: x, Y: bytes / stormBucket.Seconds() / 1e6})
			gp.Err = append(gp.Err, 0)
			rt.Points = append(rt.Points, stats.Point{X: x, Y: v.tl.retries.sums[b]})
			rt.Err = append(rt.Err, 0)
		}
		goodput.Series = append(goodput.Series, gp)
		effort.Series = append(effort.Series, rt)
	}

	res := RetryStormResult{
		NaiveNominal:    naive.windowMean(500*time.Millisecond, stormFaultAt),
		BudgetedNominal: budgeted.windowMean(500*time.Millisecond, stormFaultAt),
		NaivePost:       naive.windowMean(window-2*time.Second, window),
		BudgetedPost:    budgeted.windowMean(window-2*time.Second, window),
		NaiveReport:     naiveRep,
		BudgetedReport:  budgetedRep,
	}
	note := fmt.Sprintf(
		"vast/Wombat 4 nodes; 600 req/s of 1 MiB writes; links derated to 2%% during [%v,%v); seed %#x",
		stormFaultAt, stormRestoreAt, opts.Seed)
	verdict := fmt.Sprintf(
		"nominal naive %.1f MB/s, budgeted %.1f MB/s; post-recovery naive %.1f MB/s, budgeted %.1f MB/s",
		res.NaiveNominal/1e6, res.BudgetedNominal/1e6, res.NaivePost/1e6, res.BudgetedPost/1e6)
	goodput.Notes = append(goodput.Notes, note,
		"naive: 10ms deadline, retry forever every 5ms — the hard-mount metastable configuration",
		"budgeted: 10ms deadline, 2-retry budget with jittered exponential backoff, breaker 10 fails/200ms cooldown",
		verdict)
	effort.Notes = append(effort.Notes, note,
		"retries are attributed to the bucket of the request's terminal outcome; in-flight effort is invisible until then")
	res.Panels = []Panel{goodput, effort}
	return res, nil
}
