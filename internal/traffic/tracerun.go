package traffic

import (
	"fmt"
	"math"

	"storagesim/internal/fsapi"
	"storagesim/internal/sim"
	"storagesim/internal/trace"
)

// Trace-driven replay: instead of drawing arrivals from a stochastic
// process, the engine re-issues a recorded request stream at its recorded
// timestamps — still open-loop (a slow target does not slow the arrivals,
// it just accumulates in-flight requests), so the replay measures what the
// target system would have done under the *recorded* offered load. The
// recorded per-event latencies are deliberately ignored here; they are the
// measured reality the fidelity audit (internal/fidelity) compares the
// replay against.

// TraceConfig parameterizes one trace replay.
type TraceConfig struct {
	// Trace is the normalized recorded stream (trace.Normalize output).
	Trace *trace.Trace
	// IOBytes is the per-op transfer size used to re-issue data requests
	// whose events do not record one (Event.IO takes precedence when set).
	// 0 means 1 MiB.
	IOBytes int64
	// MaxInflight caps concurrently served requests per tenant, shedding
	// beyond it like the stochastic engine. 0 replays everything: the
	// recorded stream already is the admitted load.
	MaxInflight int
	// KeepLatencies retains every completed request's latency in seconds.
	KeepLatencies bool
	// Observer, when set, receives one event per completed request with the
	// *simulated* latency filled in — re-recording the replay, which is how
	// the audit harness audits itself (see the round-trip fidelity test).
	Observer func(trace.Event)
}

// opWorkload maps a recorded operation onto the engine's workload kinds.
func opWorkload(o trace.Op) WorkloadKind {
	switch o {
	case trace.OpWrite:
		return SeqWrite
	case trace.OpRandRead:
		return RandRead
	case trace.OpMeta:
		return Metadata
	default:
		return SeqRead
	}
}

// workloadOp is the inverse of opWorkload, used when recording a run.
func workloadOp(k WorkloadKind) trace.Op {
	switch k {
	case SeqWrite:
		return trace.OpWrite
	case RandRead:
		return trace.OpRandRead
	case Metadata:
		return trace.OpMeta
	default:
		return trace.OpRead
	}
}

// ReplayTrace re-issues the recorded stream against a storage system and
// reports per-tenant outcomes in the same shape as Run. mount and fab work
// exactly as in Run: one tagged mount per tenant×node. Events recording a
// rank are pinned to node rank%nodes (co-located requests stay
// co-located); rankless events rotate round-robin within their tenant.
// Each tenant×node slice of the stream is the source of one pipeline
// shard (see Run), admitted under the MaxInflight cap and served plain.
// ReplayTrace drives env itself and, unlike the windowed Run, drains: it
// returns when every replayed request has completed, and the report's
// Duration is the replay makespan (first issue to last completion).
func ReplayTrace(env *sim.Env, fab *sim.Fabric, nodes int, mount func(tenant string, node int) fsapi.Client, cfg TraceConfig) Report {
	if cfg.Trace == nil || len(cfg.Trace.Events) == 0 {
		panic("traffic: replay needs a non-empty trace")
	}
	if nodes <= 0 {
		panic("traffic: need at least one node")
	}
	ioBytes := cfg.IOBytes
	if ioBytes <= 0 {
		ioBytes = 1 << 20
	}

	// Partition the stream by tenant and node, preserving issue order.
	tenants := cfg.Trace.TenantNames()
	index := make(map[string]int, len(tenants))
	specs := make([]Tenant, len(tenants))
	parts := make([][][]trace.Event, len(tenants))
	for i, name := range tenants {
		index[name] = i
		specs[i] = Tenant{Name: name, MaxInflight: cfg.MaxInflight}
		parts[i] = make([][]trace.Event, nodes)
	}
	rr := make([]int, len(tenants)) // round-robin cursor of rankless events
	for _, ev := range cfg.Trace.Events {
		ti := index[ev.Tenant]
		node := rr[ti] % nodes
		if ev.Rank >= 0 {
			node = ev.Rank % nodes
		} else {
			rr[ti]++
		}
		parts[ti][node] = append(parts[ti][node], ev)
	}

	rk := newRack(env, nil, &Config{
		Spec:          Spec{Tenants: specs},
		KeepLatencies: cfg.KeepLatencies,
		Observer:      cfg.Observer,
	}, 1)
	for ti, st := range rk.tenants {
		for node, events := range parts[ti] {
			if len(events) == 0 {
				continue
			}
			sh := newShard(rk, st, 0, node, mountTagged(mount, st.spec.Name, node, st.spec.Name), "replay")
			sh.events, sh.io = events, ioBytes
			sh.arm()
		}
	}

	env.Run()

	var end sim.Time
	for _, st := range rk.tenants {
		if st.last > end {
			end = st.last
		}
	}
	return Report{Duration: end.Sub(0), Tenants: rk.report(fab)}
}

// SpecFromTrace fits a stochastic tenant spec to a recorded stream: one
// tenant per recorded traffic class, workload = its majority operation,
// request bytes = its mean data payload, arrival rate = its realized rate
// over the trace span, arrival kind = deterministic when the inter-arrival
// coefficient of variation is small, Poisson otherwise. The fitted spec
// abstracts the trace into the engine's native vocabulary, which is what
// lets a recorded stream ride everything a Spec can: load scaling,
// saturation sweeps, and rack-sharded replay via RunSharded.
func SpecFromTrace(tr *trace.Trace) (Spec, error) {
	if tr == nil || len(tr.Events) == 0 {
		return Spec{}, fmt.Errorf("traffic: cannot fit a spec to an empty trace")
	}
	span := tr.Duration().Seconds()
	if span <= 0 {
		return Spec{}, fmt.Errorf("traffic: trace span is zero, cannot fit arrival rates")
	}
	var spec Spec
	for _, name := range tr.TenantNames() {
		var events []trace.Event
		for _, ev := range tr.Events {
			if ev.Tenant == name {
				events = append(events, ev)
			}
		}
		t := Tenant{Name: name, Clients: 1}
		t.Workload = opWorkload(majorityOp(events))
		if t.Workload.movesData() {
			var bytes, n int64
			for _, ev := range events {
				if ev.Op.MovesData() {
					bytes += ev.Bytes
					n++
				}
			}
			t.RequestBytes = bytes / n // n > 0: the majority op moves data
			if t.RequestBytes <= 0 {
				t.RequestBytes = 1
			}
			t.IOBytes = t.RequestBytes
			if t.IOBytes > 1<<20 {
				t.IOBytes = 1 << 20
			}
		}
		t.Arrival = Arrival{Kind: fitArrivalKind(events), Rate: float64(len(events)) / span}
		spec.Tenants = append(spec.Tenants, t)
	}
	if err := spec.Validate(); err != nil {
		return Spec{}, fmt.Errorf("traffic: fitted spec invalid: %w", err)
	}
	return spec, nil
}

// majorityOp returns the most frequent operation, ties broken in the fixed
// order read, rand-read, write, meta so the fit is deterministic.
func majorityOp(events []trace.Event) trace.Op {
	counts := map[trace.Op]int{}
	for _, ev := range events {
		counts[ev.Op]++
	}
	best, bestN := trace.OpRead, -1
	for _, op := range []trace.Op{trace.OpRead, trace.OpRandRead, trace.OpWrite, trace.OpMeta} {
		if n := counts[op]; n > bestN {
			best, bestN = op, n
		}
	}
	return best
}

// fitArrivalCoV is the inter-arrival coefficient-of-variation threshold
// below which a stream is fitted as a deterministic rate (a Poisson
// process has CoV 1; a paced recorder has CoV near 0).
const fitArrivalCoV = 0.25

// fitArrivalKind classifies a tenant's arrival process from its
// inter-arrival statistics. Streams too short to classify fit as Poisson,
// the maximum-entropy default.
func fitArrivalKind(events []trace.Event) ArrivalKind {
	if len(events) < 8 {
		return Poisson
	}
	var deltas []float64
	for i := 1; i < len(events); i++ {
		deltas = append(deltas, events[i].At.Sub(events[i-1].At).Seconds())
	}
	var mean float64
	for _, d := range deltas {
		mean += d
	}
	mean /= float64(len(deltas))
	if mean <= 0 {
		return Poisson
	}
	var varsum float64
	for _, d := range deltas {
		varsum += (d - mean) * (d - mean)
	}
	cov := math.Sqrt(varsum/float64(len(deltas))) / mean
	if cov < fitArrivalCoV {
		return DeterministicRate
	}
	return Poisson
}
