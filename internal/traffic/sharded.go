package traffic

import (
	"fmt"
	"math"

	"storagesim/internal/fsapi"
	"storagesim/internal/sim"
	"storagesim/internal/stats"
)

// Sharded execution: the same open-loop multi-tenant engine, but spread
// over a domain-partitioned cluster. Each Rack is one sim.Group shard — its
// own Env, fabric and backend instance — and racks advance in the group's
// conservatively synchronized windows. Tenants span the whole
// cluster: every rack carries its slice of each tenant's arrival stream,
// and a configurable fraction of requests are *remote* — their data lives
// on another rack (placement by request hash), so they are forwarded over
// the inter-rack link, served by the owning rack's backend, and the reply
// crosses the link again. Remote traffic is the coupling surface that makes
// the partition a single simulation rather than R independent ones.

// Rack describes one shard of a sharded deployment.
type Rack struct {
	// Shard is the rack's slot in the domain group (its Env drives every
	// process of this rack).
	Shard *sim.Shard
	// Fab is the rack's fabric, used for per-tenant delivered-byte
	// attribution; nil disables goodput accounting for this rack.
	Fab *sim.Fabric
	// Nodes is the rack's compute-node count.
	Nodes int
	// Mount mints a fresh client mount for the named tenant on rack-local
	// node i, exactly like the mount callback of Run.
	Mount func(tenant string, node int) fsapi.Client
}

// ShardedConfig parameterizes a sharded traffic run.
type ShardedConfig struct {
	Config
	// RemoteFraction is the probability that a request's data lives on
	// another rack (uniform over the others), drawn per request from a
	// deterministic placement stream. 0 decouples the racks entirely;
	// realistic scale-out deployments sit somewhere below 1 - 1/racks.
	RemoteFraction float64
}

// Validate reports the first problem with cfg: everything Config.Validate
// rejects, a remote fraction outside [0,1], and the per-request Observer,
// OutcomeObserver and Drain, which a sharded run cannot honour. Within a
// window the racks step one after another, so a per-request callback
// would see completions rack by rack, not in time order; and Group.Run
// stops at its deadline, so it cannot drain.
func (cfg *ShardedConfig) Validate() error {
	if err := cfg.Config.Validate(); err != nil {
		return err
	}
	if !(cfg.RemoteFraction >= 0 && cfg.RemoteFraction <= 1) {
		return fmt.Errorf("traffic: remote fraction %g out of [0,1]", cfg.RemoteFraction)
	}
	if cfg.Observer != nil || cfg.OutcomeObserver != nil || cfg.Drain {
		return fmt.Errorf("traffic: sharded runs support no Observer, OutcomeObserver or Drain")
	}
	return nil
}

// RackReport is the rack-local accounting of one rack: arrivals generated
// on the rack (including its forwarded remote requests) and bytes served by
// the rack's own backend.
type RackReport struct {
	Rack    int
	Name    string
	Tenants []TenantReport
}

// ShardedReport is the outcome of a sharded run: per-rack accounting plus
// the cluster-wide merge (tenant sums, sketches merged in rack order).
type ShardedReport struct {
	Duration sim.Duration
	Racks    []RackReport
	Tenants  []TenantReport
}

// Digest renders the full observable outcome with float bit patterns — the
// event-order-sensitive witness the lockstep tests pin.
func (r ShardedReport) Digest() string {
	out := fmt.Sprintf("window=%v", r.Duration)
	for _, rr := range r.Racks {
		out += fmt.Sprintf(" [%s", rr.Name)
		for _, tr := range rr.Tenants {
			out += fmt.Sprintf(" %s:%d/%d/%d/%d:%d/%d/%d/%d/%d/%d/%d:%016x:%016x/%016x/%016x",
				tr.Name, tr.Offered, tr.Shed, tr.Completed, tr.InFlightEnd,
				tr.ShedAdmission, tr.ShedBrownout, tr.ShedBreaker, tr.DeadlineMiss,
				tr.Retries, tr.Hedges, tr.HedgeWins,
				math.Float64bits(tr.DeliveredBytes),
				math.Float64bits(tr.P50.Seconds()),
				math.Float64bits(tr.P95.Seconds()),
				math.Float64bits(tr.P99.Seconds()))
		}
		out += "]"
	}
	return out
}

// RunSharded executes the spec across the racks of a domain group and
// reports per-rack and merged SLO outcomes. The group must be fresh (its
// barrier clock at zero) with every rack's Shard registered on it and
// inter-rack links declared (required when RemoteFraction > 0). RunSharded
// drives the group itself; the caller shuts it down afterwards.
//
// The window always ends at Duration, and racks complete requests rack by
// rack within each window: RunSharded panics when Observer,
// OutcomeObserver or Drain is set (see ShardedConfig.Validate).
func RunSharded(g *sim.Group, racks []Rack, cfg ShardedConfig) ShardedReport {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if len(racks) == 0 {
		panic("traffic: need at least one rack")
	}
	if g.Now() != 0 {
		panic("traffic: sharded run needs a fresh group")
	}
	for _, rk := range racks {
		if rk.Nodes <= 0 {
			panic("traffic: rack needs at least one node")
		}
	}
	remote := cfg.RemoteFraction
	if len(racks) == 1 {
		remote = 0 // nowhere else to place data
	}
	states := startRacks(&cfg.Config, racks, nil, remote)
	g.Run(sim.Time(0).Add(cfg.Duration))

	rep := ShardedReport{Duration: cfg.Duration}
	for r, rk := range states {
		rep.Racks = append(rep.Racks, RackReport{Rack: r, Name: racks[r].Shard.Name(), Tenants: rk.report(racks[r].Fab)})
	}
	for ti := range cfg.Spec.Tenants {
		t := &cfg.Spec.Tenants[ti]
		merged := TenantReport{Name: t.Name, SLOP99: t.SLOP99, Sketch: stats.NewSketch(cfg.SketchAlpha)}
		for r := range racks {
			tr := &rep.Racks[r].Tenants[ti]
			merged.Offered += tr.Offered
			merged.Shed += tr.Shed
			merged.Completed += tr.Completed
			merged.ShedAdmission += tr.ShedAdmission
			merged.ShedBrownout += tr.ShedBrownout
			merged.ShedBreaker += tr.ShedBreaker
			merged.DeadlineMiss += tr.DeadlineMiss
			merged.Retries += tr.Retries
			merged.Hedges += tr.Hedges
			merged.HedgeWins += tr.HedgeWins
			merged.Breaker.Opens += tr.Breaker.Opens
			merged.Breaker.HalfOpens += tr.Breaker.HalfOpens
			merged.Breaker.Closes += tr.Breaker.Closes
			merged.InFlightEnd += tr.InFlightEnd
			merged.DeliveredBytes += tr.DeliveredBytes
			merged.PayloadBytes += tr.PayloadBytes
			merged.Sketch.Merge(tr.Sketch)
			merged.Latencies = append(merged.Latencies, tr.Latencies...)
		}
		merged.summarize()
		rep.Tenants = append(rep.Tenants, merged)
	}
	return rep
}

// placementSeed derives the per-generator placement RNG seed, independent
// of the arrival stream so turning remote traffic on does not perturb
// arrival times.
func placementSeed(seed uint64, tenant, shard int) uint64 {
	return stats.Mix64(shardSeed(seed, tenant, shard) ^ 0x706c6163656d6e74) // "placemnt"
}
