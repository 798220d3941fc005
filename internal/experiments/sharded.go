package experiments

import (
	"fmt"
	"math"
	"time"

	"storagesim/internal/sim"
	"storagesim/internal/stats"
	"storagesim/internal/traffic"
)

// Sharded experiment entry points: the cluster is partitioned into racks —
// one full machine+fs testbed per rack, each on its own sim shard — and the
// racks advance in the group's conservatively synchronized windows. Remote
// traffic (placement on another rack) crosses the inter-rack links and is
// the coupling that makes the partition one simulation.

// interRackLatency is the fabric latency of the inter-rack forwarding
// links; it is also the group's conservative lookahead — every rack can
// safely advance this far beyond the last barrier before it could possibly
// hear from a peer.
const interRackLatency = 5 * time.Microsecond

// buildShardedTestbeds assembles `racks` identical machine+fs testbeds,
// one per shard of a fresh group, linked in a full mesh at
// interRackLatency.
func buildShardedTestbeds(machine string, fs FS, racks, nodesPerRack int) (*sim.Group, []traffic.Rack, []*testbed, error) {
	if racks < 1 {
		return nil, nil, nil, fmt.Errorf("experiments: need at least one rack, got %d", racks)
	}
	if nodesPerRack < 1 {
		return nil, nil, nil, fmt.Errorf("experiments: need at least one node per rack, got %d", nodesPerRack)
	}
	g := sim.NewGroup(1)
	tbs := make([]*testbed, racks)
	trs := make([]traffic.Rack, racks)
	for r := 0; r < racks; r++ {
		env := sim.NewEnv()
		fab := sim.NewFabric(env)
		shard := g.AddShard(fmt.Sprintf("rack%d/%s", r, fs), env)
		tb, err := buildTestbedOn(env, fab, machine, fs, nodesPerRack, nil)
		if err != nil {
			g.Shutdown()
			return nil, nil, nil, err
		}
		tbs[r] = tb
		trs[r] = traffic.Rack{
			Shard: shard,
			Fab:   fab,
			Nodes: nodesPerRack,
			Mount: tb.tenantMount,
		}
	}
	if racks > 1 {
		g.LinkAll(interRackLatency)
	}
	return g, trs, tbs, nil
}

// RunShardedTraffic builds `racks` identical machine+fs testbeds — one per
// group shard — and drives the sharded traffic engine across them.
// cfg.RemoteFraction of requests are placed on another rack and forwarded
// over the inter-rack links.
func RunShardedTraffic(machine string, fs FS, racks, nodesPerRack int, cfg traffic.ShardedConfig) (traffic.ShardedReport, error) {
	if err := cfg.Validate(); err != nil {
		return traffic.ShardedReport{}, err
	}
	g, trs, _, err := buildShardedTestbeds(machine, fs, racks, nodesPerRack)
	if err != nil {
		return traffic.ShardedReport{}, err
	}
	defer g.Shutdown()
	return traffic.RunSharded(g, trs, cfg), nil
}

// runSaturationPoint dispatches one saturation data point to the classic
// single-env engine or the domain-sharded one, per opts.Racks. Both return
// cluster-wide per-tenant reports in spec order.
func runSaturationPoint(machine string, fs FS, nodes int, cfg traffic.Config, opts Options) ([]traffic.TenantReport, error) {
	if opts.Racks <= 1 {
		rep, err := RunTraffic(machine, fs, nodes, cfg)
		return rep.Tenants, err
	}
	per := nodes / opts.Racks
	if per < 1 {
		per = 1
	}
	rep, err := RunShardedTraffic(machine, fs, opts.Racks, per,
		traffic.ShardedConfig{Config: cfg, RemoteFraction: opts.RemoteFraction})
	return rep.Tenants, err
}

// RackChaosOutcome is one rack's storm accounting inside a sharded chaos
// run; its Seed is the rack's derived storm seed.
type RackChaosOutcome struct {
	Rack int
	StormOutcome
}

// ShardedChaosReport is the outcome of a sharded chaos run:
// per-rack storm accounting plus the foreground traffic report.
type ShardedChaosReport struct {
	Backend string
	Machine string
	Seed    uint64
	Racks   []RackChaosOutcome
	Traffic traffic.ShardedReport
}

// Violations flattens every rack's invariant violations.
func (r ShardedChaosReport) Violations() []string {
	var out []string
	for _, rc := range r.Racks {
		out = append(out, rc.Violations...)
	}
	return out
}

// Digest renders the full observable outcome — per-rack storm accounting
// with float bit patterns plus the traffic engine's own digest. The chaos
// tests demand this string is byte-identical across runs and kernel builds
// (TestGolden/chaos_digests).
func (r ShardedChaosReport) Digest() string {
	out := fmt.Sprintf("%s/%s seed=%#x", r.Backend, r.Machine, r.Seed)
	for _, rc := range r.Racks {
		out += fmt.Sprintf(" [r%d seed=%#x delivered=%d lost=%016x rebuilt=%016x losses=%d rebuilds=%d viol=%d]",
			rc.Rack, rc.Seed, rc.Delivered,
			math.Float64bits(rc.LostBytes), math.Float64bits(rc.RebuiltBytes),
			rc.Losses, rc.Rebuilds, len(rc.Violations))
	}
	return out + " " + r.Traffic.Digest()
}

// shardedChaosTenants is the foreground mix of the sharded chaos gate: a
// checkpoint writer and a metadata tenant, hot enough to generate hundreds
// of requests inside the short storm window.
func shardedChaosTenants() traffic.Spec {
	return traffic.Spec{Tenants: []traffic.Tenant{
		{
			Name: "ckpt", Clients: 4000, Workload: traffic.SeqWrite,
			Arrival:      traffic.Arrival{Kind: traffic.Poisson, Rate: 1},
			RequestBytes: 1 << 20, IOBytes: 1 << 20,
			MaxInflight: 64, SLOP99: 50 * time.Millisecond,
		},
		{
			Name: "meta", Clients: 2000, Workload: traffic.Metadata,
			Arrival:     traffic.Arrival{Kind: traffic.DeterministicRate, Rate: 1},
			MaxInflight: 128, SLOP99: 5 * time.Millisecond,
		},
	}}
}

// rackStormSeed derives rack r's storm seed from the run seed — distinct,
// deterministic streams per rack.
func rackStormSeed(seed uint64, r int) uint64 {
	return stats.Mix64(seed ^ (uint64(r+1) * 0x9e3779b97f4a7c15))
}

// RunShardedChaosStorm is the chaos gate's sharded variant: every
// rack of a sharded deployment gets its own seeded storm, repair manager
// and invariant checker, while the sharded traffic engine (remote fraction
// 0.25) runs as the foreground across all racks — so rebuild traffic,
// fault windows and cross-rack forwarding interleave inside one
// conservatively synchronized simulation.
func RunShardedChaosStorm(fs FS, racks int, seed uint64, opts Options) (ShardedChaosReport, error) {
	opts = opts.withDefaults()
	machine, err := chaosMachine(fs)
	if err != nil {
		return ShardedChaosReport{}, err
	}
	g, trs, tbs, err := buildShardedTestbeds(machine, fs, racks, 2)
	if err != nil {
		return ShardedChaosReport{}, err
	}
	defer g.Shutdown()

	rigs := make([]*stormRig, racks)
	for r, tb := range tbs {
		if rigs[r], err = armStorm(tb, fs, rackStormSeed(seed, r)); err != nil {
			return ShardedChaosReport{}, err
		}
	}

	trep := traffic.RunSharded(g, trs, traffic.ShardedConfig{
		Config: traffic.Config{
			Spec:     shardedChaosTenants(),
			Duration: 50 * time.Millisecond,
			Seed:     opts.Seed + seed,
		},
		RemoteFraction: 0.25,
	})

	rep := ShardedChaosReport{Backend: string(fs), Machine: machine, Seed: seed, Traffic: trep}
	for r, rig := range rigs {
		out, err := rig.outcome()
		if err != nil {
			return ShardedChaosReport{}, fmt.Errorf("rack %d: %w", r, err)
		}
		rep.Racks = append(rep.Racks, RackChaosOutcome{Rack: r, StormOutcome: out})
	}
	return rep, nil
}
