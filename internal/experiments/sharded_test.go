package experiments

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"storagesim/internal/traffic"
)

func shardedTrafficDigest(t *testing.T, fs FS, machine string, seed uint64) string {
	t.Helper()
	rep, err := RunShardedTraffic(machine, fs, 2, 2, traffic.ShardedConfig{
		Config: traffic.Config{
			Spec:     shardedChaosTenants(),
			Duration: 20 * time.Millisecond,
			Seed:     seed,
		},
		RemoteFraction: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep.Digest()
}

// goldenShardedLockstep is the determinism gate of the sharded
// experiments: pinned seeds, full VAST and Lustre stacks split over two
// racks, one digest each.
func goldenShardedLockstep(t *testing.T) string {
	type deployment struct {
		fs      FS
		machine string
	}
	deps := []deployment{{VAST, "Wombat"}, {Lustre, "Ruby"}}
	seeds := []uint64{0x5eed1, 0x5eed2}
	var b strings.Builder
	for _, d := range deps {
		for _, seed := range seeds {
			fmt.Fprintf(&b, "%s/%s seed=%#x %s\n", d.fs, d.machine, seed, shardedTrafficDigest(t, d.fs, d.machine, seed))
		}
	}
	return b.String()
}

// TestShardedTrafficCoupling: remote placement must couple the racks — a
// remote-fraction-0 run has to produce a different outcome than the
// coupled one, or the forwarding path silently never engaged.
func TestShardedTrafficCoupling(t *testing.T) {
	cfg := traffic.Config{Spec: shardedChaosTenants(), Duration: 20 * time.Millisecond, Seed: 0x5eed1}
	coupled, err := RunShardedTraffic("Wombat", VAST, 2, 2, traffic.ShardedConfig{Config: cfg, RemoteFraction: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	isolated, err := RunShardedTraffic("Wombat", VAST, 2, 2, traffic.ShardedConfig{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if coupled.Digest() == isolated.Digest() {
		t.Fatal("remote fraction 0.3 produced the same digest as 0: forwarding never engaged")
	}
}

// TestShardedChaosSmoke: a two-rack chaos storm (run under -race by `make
// race`; TestGolden/chaos_digests pins its digest) with zero invariant
// violations on either rack and live foreground traffic on both.
func TestShardedChaosSmoke(t *testing.T) {
	got, err := RunShardedChaosStorm(VAST, 2, 0x5eed1, Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if v := got.Violations(); len(v) != 0 {
		t.Errorf("%d invariant violation(s): %s", len(v), v[0])
	}
	for _, rc := range got.Racks {
		if rc.Delivered == 0 {
			t.Errorf("rack %d storm delivered no events", rc.Rack)
		}
	}
	var completed uint64
	for _, tr := range got.Traffic.Tenants {
		completed += tr.Completed
	}
	if completed == 0 {
		t.Error("foreground traffic completed no requests during the storm")
	}
}

// TestSaturationShardedKnob: the Options.Racks knob routes the saturation
// sweep through the sharded engine and still produces well-formed panels.
func TestSaturationShardedKnob(t *testing.T) {
	tenants, err := runSaturationPoint("Wombat", VAST, 4, traffic.Config{
		Spec:     shardedChaosTenants(),
		Duration: 20 * time.Millisecond,
		Seed:     0x5eed,
	}, Options{Racks: 2, RemoteFraction: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if len(tenants) != 2 {
		t.Fatalf("tenant count %d, want 2", len(tenants))
	}
	for _, tr := range tenants {
		if tr.Offered == 0 || tr.Completed == 0 {
			t.Errorf("%s: offered %d completed %d", tr.Name, tr.Offered, tr.Completed)
		}
	}
}
