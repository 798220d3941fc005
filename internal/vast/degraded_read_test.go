package vast

import (
	"testing"

	"storagesim/internal/netsim"
	"storagesim/internal/sim"
)

// newDegradedSystem builds a 4-DBox instance so stripe homes cycle 0..3
// over the default 1 MiB stripes.
func newDegradedSystem(t *testing.T) (*sim.Env, *System) {
	t.Helper()
	env := sim.NewEnv()
	fab := sim.NewFabric(env)
	tr := &netsim.TCPTransport{PerConnBW: 5e9, Connections: 1}
	cfg := testConfig(tr)
	cfg.DBoxes = 4
	sys, err := New(env, fab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return env, sys
}

const mib = int64(1) << 20

func TestReadDegradedStripeMapping(t *testing.T) {
	_, sys := newDegradedSystem(t)
	sys.FailUnit(1)

	cases := []struct {
		name     string
		off, n   int64
		degraded bool
	}{
		{"stripe 0 homed on healthy DBox 0", 0, mib, false},
		{"stripe 1 homed on failed DBox 1", mib, mib, true},
		{"stripe 2 homed on healthy DBox 2", 2 * mib, mib, false},
		{"stripe 5 wraps back to failed DBox 1", 5 * mib, mib, true},
		{"partial extent inside stripe 1", mib + 4096, 4096, true},
		{"partial extent inside stripe 2", 2*mib + 4096, 4096, false},
		{"range spanning stripes 0-1 touches the failed home", 0, 2 * mib, true},
		{"range spanning stripes 2-3 stays clean", 2 * mib, 2 * mib, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := sys.readDegraded(tc.off, tc.n); got != tc.degraded {
				t.Errorf("readDegraded(%d, %d) = %v, want %v", tc.off, tc.n, got, tc.degraded)
			}
		})
	}
}

func TestNoDegradedReadsWhenAllHealthy(t *testing.T) {
	_, sys := newDegradedSystem(t)
	for off := int64(0); off < 8*mib; off += mib {
		if sys.readDegraded(off, mib) {
			t.Fatalf("offset %d degraded with every DBox healthy", off)
		}
	}
}

// timeQLCRead measures one op-level QLC read in isolation.
func timeQLCRead(t *testing.T, sys *System, env *sim.Env, off, n int64) sim.Duration {
	t.Helper()
	var took sim.Duration
	env.Go("read", func(p *sim.Proc) {
		start := p.Now()
		sys.qlcOpRead(p, 1, off, n)
		took = sim.Duration(p.Now() - start)
	})
	env.Run()
	return took
}

func TestDecodePenaltyOnlyOnFailedHome(t *testing.T) {
	env, sys := newDegradedSystem(t)
	sys.FailUnit(1)

	clean := timeQLCRead(t, sys, env, 0, mib)      // stripe 0, healthy home
	degraded := timeQLCRead(t, sys, env, mib, mib) // stripe 1, failed home
	clean2 := timeQLCRead(t, sys, env, 2*mib, mib) // stripe 2, healthy home

	if clean != clean2 {
		t.Fatalf("two clean-stripe reads differ: %v vs %v", clean, clean2)
	}
	if degraded <= clean {
		t.Fatalf("degraded read (%v) not slower than clean read (%v)", degraded, clean)
	}
	// The penalty is decode latency plus 1.5x read amplification; latency
	// alone lower-bounds the delta.
	if delta := degraded - clean; delta < sys.cfg.decodeLatency() {
		t.Errorf("penalty %v smaller than decode latency %v", delta, sys.cfg.decodeLatency())
	}
}

func TestDecodePenaltyPersistsThroughPartialRebuild(t *testing.T) {
	env, sys := newDegradedSystem(t)
	sys.FailUnit(1)
	// 99% rebuilt: capacity is nearly restored, but the stripe still misses
	// its home strip, so reads keep paying the decode until completion.
	sys.SetUnitRebuild(1, 0.99)

	if !sys.readDegraded(mib, mib) {
		t.Fatal("stripe on a 99%-rebuilt DBox must still read degraded")
	}
	clean := timeQLCRead(t, sys, env, 0, mib)
	degraded := timeQLCRead(t, sys, env, mib, mib)
	if degraded <= clean {
		t.Errorf("partial rebuild removed the decode penalty early: %v vs %v", degraded, clean)
	}
}

func TestDecodePenaltyDisappearsAfterRebuildCompletes(t *testing.T) {
	env, sys := newDegradedSystem(t)
	baseline := timeQLCRead(t, sys, env, mib, mib)

	sys.FailUnit(1)
	sys.SetUnitRebuild(1, 0.5)
	// Rebuild completion is RecoverUnit — exactly what repair.Manager calls
	// when the job's last chunk lands.
	sys.RecoverUnit(1)

	if sys.readDegraded(mib, mib) {
		t.Fatal("stripe still degraded after its DBox rebuild completed")
	}
	after := timeQLCRead(t, sys, env, mib, mib)
	if after != baseline {
		t.Errorf("post-rebuild read %v differs from pre-failure baseline %v", after, baseline)
	}
}
