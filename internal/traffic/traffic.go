package traffic

import (
	"fmt"
	"math"

	"storagesim/internal/fsapi"
	"storagesim/internal/resilience"
	"storagesim/internal/sim"
	"storagesim/internal/stats"
	"storagesim/internal/trace"
)

// Config parameterizes one traffic run.
type Config struct {
	// Spec is the validated multi-tenant description.
	Spec Spec
	// Duration is the open-loop generation window; requests in flight when
	// it closes are counted but not waited for.
	Duration sim.Duration
	// Seed drives every arrival stream (per-shard substreams are derived
	// with Mix64, so tenants and shards are independent).
	Seed uint64
	// LoadScale multiplies every tenant's offered rate — the x axis of a
	// saturation sweep. 0 means 1.
	LoadScale float64
	// KeepLatencies retains every completed request's latency in seconds,
	// in completion order — the exact-oracle input of the differential
	// tests. Off by default: the whole point of the sketch is not keeping
	// millions of float64s.
	KeepLatencies bool
	// Observer, when set, receives one trace event per completed request
	// (issue time, tenant, op, bytes, measured latency, node, path) — the
	// recording side of the trace pipeline: write the stream out with
	// trace.WriteJSONL and any run becomes a replayable, auditable trace.
	// RunSharded rejects it, like OutcomeObserver and Drain.
	Observer func(trace.Event)
	// Drain keeps the simulation running after the generation window
	// closes until every admitted request completes, instead of abandoning
	// the in-flight tail. A recording meant for fidelity audits must drain:
	// requests the window cut off contended for bandwidth in the original
	// run but would be missing from the recorded stream, so an undrained
	// recording replays against less load than it was measured under.
	Drain bool
	// OutcomeObserver, when set, receives one event per request outcome —
	// completions and every shed/failure class — which is how the
	// retry-storm study buckets goodput timelines without touching the
	// engine's aggregates.
	OutcomeObserver func(OutcomeEvent)
}

// Validate reports the first problem with cfg: an invalid spec, a
// non-positive window, or a load scale that is negative or not finite.
func (cfg *Config) Validate() error {
	if err := cfg.Spec.Validate(); err != nil {
		return fmt.Errorf("traffic: invalid spec: %w", err)
	}
	if cfg.Duration <= 0 {
		return fmt.Errorf("traffic: duration %v is not positive", cfg.Duration)
	}
	if math.IsNaN(cfg.LoadScale) || math.IsInf(cfg.LoadScale, 0) || cfg.LoadScale < 0 {
		return fmt.Errorf("traffic: load scale %g is not a finite non-negative number", cfg.LoadScale)
	}
	return nil
}

// OutcomeKind classifies one request's fate.
type OutcomeKind string

// Outcome kinds.
const (
	// OutcomeCompleted: served within its deadline (or no deadline set).
	OutcomeCompleted OutcomeKind = "completed"
	// OutcomeDeadlineMiss: admitted, but every attempt missed the deadline
	// (or the retry budget/breaker cut the request short).
	OutcomeDeadlineMiss OutcomeKind = "deadline-miss"
	// OutcomeShedAdmission: refused by the per-tenant inflight cap.
	OutcomeShedAdmission OutcomeKind = "shed-admission"
	// OutcomeShedBrownout: refused by the engine-wide brownout tiers.
	OutcomeShedBrownout OutcomeKind = "shed-brownout"
	// OutcomeShedBreaker: refused by an open circuit breaker.
	OutcomeShedBreaker OutcomeKind = "shed-breaker"
)

// OutcomeEvent is one request's terminal accounting record.
type OutcomeEvent struct {
	// At is the outcome instant (arrival time for sheds, completion or
	// failure time for admitted requests).
	At sim.Time
	// Tenant names the traffic class.
	Tenant string
	// Kind classifies the outcome.
	Kind OutcomeKind
	// Bytes is the request payload (delivered only when completed).
	Bytes int64
	// Retries and Hedges are the resilience effort spent on the request.
	Retries, Hedges int
}

// TenantReport is the per-tenant outcome of a run.
type TenantReport struct {
	Name string
	// Offered counts generated arrivals; Shed the ones that terminated
	// without completing (all shed classes plus deadline misses — kept as
	// the sum for compatibility); Completed the ones fully served inside
	// the window. Offered - Shed - Completed requests were still in flight
	// at the end.
	Offered, Shed, Completed uint64
	// The Shed sum split by cause: per-tenant inflight-cap refusals,
	// engine-wide brownout refusals, open-breaker refusals, and admitted
	// requests whose every attempt missed the deadline.
	// Shed = ShedAdmission + ShedBrownout + ShedBreaker + DeadlineMiss.
	ShedAdmission, ShedBrownout, ShedBreaker, DeadlineMiss uint64
	// Retries, Hedges and HedgeWins count the resilience layer's effort:
	// re-attempts after deadline misses, speculative twins launched, and
	// requests the twin won.
	Retries, Hedges, HedgeWins uint64
	// Breaker counts the tenant's circuit-breaker state transitions.
	Breaker resilience.BreakerStats
	// InFlightEnd is the admission count still open when the window closed.
	InFlightEnd int
	// DeliveredBytes integrates the tenant's fabric traffic (tagged flows),
	// including partial progress of still-running requests.
	DeliveredBytes float64
	// PayloadBytes sums the request payload of completed requests — the
	// application-visible delivered data, the quantity recorded traces
	// count and fidelity audits compare (fabric bytes can include
	// replication and read-amplification the recording never saw).
	PayloadBytes float64
	// P50/P95/P99 are sketch-estimated completion-latency percentiles.
	P50, P95, P99 sim.Duration
	// SLOP99 echoes the tenant's target; SLOAttainment is the fraction of
	// completed requests at or under it (NaN when no SLO was declared or
	// nothing completed).
	SLOP99        sim.Duration
	SLOAttainment float64
	// Sketch is the full latency sketch (seconds), for merging or extra
	// quantiles. Latencies carries the raw values when
	// Config.KeepLatencies was set.
	Sketch    *stats.Sketch
	Latencies []float64
}

// GoodputBps returns the tenant's delivered bandwidth over the window.
func (r *TenantReport) GoodputBps(d sim.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return r.DeliveredBytes / d.Seconds()
}

// Report is the outcome of one traffic run, tenants in spec order.
type Report struct {
	Duration sim.Duration
	Tenants  []TenantReport
}

// Run executes the spec against a storage system and reports per-tenant
// SLO outcomes. mount mints a fresh client mount for the named tenant on
// compute node `node` (0-based, < nodes); the engine creates one mount per
// tenant×node shard and — when the mount supports fsapi.FlowTagger — tags
// it so the tenant's fabric bytes are attributed. fab may be nil when no
// delivered-byte accounting is wanted.
//
// Run is the one-rack case of the request pipeline RunSharded drives:
// each tenant×node shard carries 1/nodes-th of the tenant's aggregate
// arrival stream (see arrivalGen for why the merge is exact for
// Poisson-family processes), drawn one arrival ahead and admitted by
// calendar ticks, through admission, the tenant's policy, serve and
// completion. No process exists per client or per generator, so process
// count is O(in-flight requests) regardless of Tenant.Clients.
//
// Run drives env itself (RunUntil the window's end) and must be called
// with a quiescent env; fault schedules armed on the same env beforehand
// compose naturally — their timers fire inside the window. Once the report
// is built, Run shuts env down (sim.Env.Shutdown), unwinding the requests
// still in flight, so a finished run pins no goroutines; env cannot run
// again. A cfg that Validate rejects is a caller bug: Run panics with
// Validate's error.
func Run(env *sim.Env, fab *sim.Fabric, nodes int, mount func(tenant string, node int) fsapi.Client, cfg Config) Report {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if nodes <= 0 {
		panic("traffic: need at least one node")
	}
	rk := startRacks(&cfg, []Rack{{Nodes: nodes, Mount: mount}}, env, 0)[0]
	env.RunUntil(sim.Time(0).Add(cfg.Duration))
	if cfg.Drain {
		env.Run()
	}
	rep := Report{Duration: cfg.Duration, Tenants: rk.report(fab)}
	env.Shutdown()
	return rep
}
