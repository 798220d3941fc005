package vast

import (
	"fmt"
	"testing"
	"time"

	"storagesim/internal/netsim"
	"storagesim/internal/sim"
)

// mountN mounts n clients; with 4 CNodes the round-robin homes are
// 0,1,2,3,0,1,...
func mountN(fab *sim.Fabric, sys *System, n int) []*client {
	var out []*client
	for i := 0; i < n; i++ {
		nic := netsim.NewIface(fab, fmt.Sprintf("e%d/nic", i), 10e9, 0)
		out = append(out, sys.Mount(fmt.Sprintf("e%d", i), nic).(*client))
	}
	return out
}

// TestFailoverSequences drives the fail/recover state machine
// through edge-case sequences. After every non-panicking step, no client
// may be pinned to a failed CNode — failover is supposed to hold as an
// invariant, not just after a single clean failure.
func TestFailoverSequences(t *testing.T) {
	type step struct {
		op  string
		idx int
	}
	cases := []struct {
		name        string
		steps       []step
		wantHealthy int
		wantPanic   bool
	}{
		{"fail recover fail same CNode", []step{{"fail", 1}, {"recover", 1}, {"fail", 1}}, 3, false},
		{"double fail is a no-op", []step{{"fail", 2}, {"fail", 2}}, 3, false},
		{"recover healthy is a no-op", []step{{"recover", 0}}, 4, false},
		{"interleaved fail and recover", []step{{"fail", 0}, {"fail", 1}, {"recover", 0}, {"fail", 2}}, 2, false},
		{"cascade to two survivors", []step{{"fail", 3}, {"fail", 0}}, 2, false},
		{"fail last healthy panics", []step{{"fail", 0}, {"fail", 1}, {"fail", 2}, {"fail", 3}}, 0, true},
		{"fail out of range panics", []step{{"fail", 7}}, 0, true},
		{"fail negative panics", []step{{"fail", -1}}, 0, true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			_, fab, sys := newTestSystem(t)
			clients := mountN(fab, sys, 8)
			panicked := func() (p bool) {
				defer func() { p = recover() != nil }()
				for _, st := range tc.steps {
					switch st.op {
					case "fail":
						sys.FailServer(st.idx)
					case "recover":
						sys.RecoverServer(st.idx)
					}
					for i, cl := range clients {
						if sys.ServerFailed(cl.cnode) {
							t.Errorf("after %s %d: client %d pinned to failed CNode %d", st.op, st.idx, i, cl.cnode)
						}
					}
				}
				return false
			}()
			if panicked != tc.wantPanic {
				t.Fatalf("panicked = %v, want %v", panicked, tc.wantPanic)
			}
			if tc.wantPanic {
				return
			}
			if got := sys.HealthyServers(); got != tc.wantHealthy {
				t.Fatalf("healthy = %d, want %d", got, tc.wantHealthy)
			}
		})
	}
}

// TestRePinDistributionAfterRecovery checks the full failover round trip:
// failing a CNode spreads its clients over the survivors, and recovering
// it moves exactly its home clients back, restoring the balanced
// mount-time distribution.
func TestRePinDistributionAfterRecovery(t *testing.T) {
	_, fab, sys := newTestSystem(t)
	clients := mountN(fab, sys, 8) // homes 0,1,2,3,0,1,2,3

	distribution := func() map[int]int {
		d := map[int]int{}
		for _, cl := range clients {
			d[cl.cnode]++
		}
		return d
	}
	sys.FailServer(0)
	if d := distribution(); d[0] != 0 {
		t.Fatalf("failed CNode still serves %d clients", d[0])
	}
	sys.RecoverServer(0)
	d := distribution()
	for cn := 0; cn < 4; cn++ {
		if d[cn] != 2 {
			t.Fatalf("after recovery CNode %d serves %d clients, want 2 (distribution %v)", cn, d[cn], d)
		}
	}
	for i, cl := range clients {
		if cl.cnode != cl.home {
			t.Errorf("client %d on CNode %d, home %d: recovery did not re-balance", i, cl.cnode, cl.home)
		}
	}
	// The moved clients (homes on CNode 0) must be marked stale so their
	// next op pays the retransmit penalty; untouched clients must not be.
	for i, cl := range clients {
		wantStale := cl.home == 0
		if cl.stale != wantStale {
			t.Errorf("client %d stale = %v, want %v", i, cl.stale, wantStale)
		}
	}
}

// TestRetryPenaltyAfterFailover measures the NFS retransmit model: with a
// retry policy configured, the first operation after a failover pays at
// least one timeout round; once paid, subsequent ops run at full speed.
func TestRetryPenaltyAfterFailover(t *testing.T) {
	env := sim.NewEnv()
	fab := sim.NewFabric(env)
	cfg := testConfig(&netsim.TCPTransport{PerConnBW: 5e9, Connections: 1, RPC: 50 * time.Microsecond})
	cfg.Retry = netsim.RetryPolicy{Timeout: sim.Duration(2 * time.Millisecond), Multiplier: 2}
	sys := MustNew(env, fab, cfg)
	cl := sys.Mount("n0", netsim.NewIface(fab, "n0/nic", 10e9, 0)).(*client)
	victim := cl.cnode

	var clean, penalized, after sim.Duration
	env.Go("w", func(p *sim.Proc) {
		// WriteAt lands in the client page cache; Fsync drives the backend
		// op path where the retransmit penalty is charged.
		f := cl.Open(p, "/f", true)
		t0 := p.Now()
		f.WriteAt(p, 0, 1<<20)
		f.Fsync(p)
		clean = sim.Duration(p.Now() - t0)

		sys.FailServer(victim)
		t0 = p.Now()
		f.WriteAt(p, 1<<20, 1<<20)
		f.Fsync(p)
		penalized = sim.Duration(p.Now() - t0)

		t0 = p.Now()
		f.WriteAt(p, 2<<20, 1<<20)
		f.Fsync(p)
		after = sim.Duration(p.Now() - t0)
	})
	env.Run()

	if penalized < clean+cfg.Retry.Timeout {
		t.Fatalf("op after failover took %v, want at least clean %v + timeout %v", penalized, clean, cfg.Retry.Timeout)
	}
	// The stale flag is one-shot: the third op must not pay again. The
	// surviving CNodes carry extra load, so allow slack over the clean op.
	if after >= cfg.Retry.Timeout {
		t.Fatalf("second op after failover still pays the retransmit penalty: %v", after)
	}
}

// TestMidFlightFailRecoverFail keeps op-level I/O running while the same
// CNode fails, recovers and fails again. The stream must complete, and the
// client must end on a healthy CNode.
func TestMidFlightFailRecoverFail(t *testing.T) {
	env := sim.NewEnv()
	fab := sim.NewFabric(env)
	cfg := testConfig(&netsim.TCPTransport{PerConnBW: 5e9, Connections: 1, RPC: 50 * time.Microsecond})
	cfg.Retry = netsim.RetryPolicy{Timeout: sim.Duration(500 * time.Microsecond), Multiplier: 2, MaxTimeout: sim.Duration(4 * time.Millisecond)}
	sys := MustNew(env, fab, cfg)
	cl := sys.Mount("n0", netsim.NewIface(fab, "n0/nic", 10e9, 0)).(*client)
	victim := cl.cnode

	var done bool
	env.Go("w", func(p *sim.Proc) {
		f := cl.Open(p, "/f", true)
		for i := int64(0); i < 96; i++ {
			f.WriteAt(p, i<<20, 1<<20)
			f.Fsync(p)
		}
		done = true
	})
	env.Go("chaos", func(p *sim.Proc) {
		p.Sleep(3 * time.Millisecond)
		sys.FailServer(victim)
		p.Sleep(5 * time.Millisecond)
		sys.RecoverServer(victim)
		p.Sleep(5 * time.Millisecond)
		sys.FailServer(victim)
	})
	env.Run()

	if !done {
		t.Fatal("op stream did not survive fail/recover/fail")
	}
	if sys.ServerFailed(cl.cnode) {
		t.Fatalf("client ended pinned to failed CNode %d", cl.cnode)
	}
	if got := sys.HealthyServers(); got != 3 {
		t.Fatalf("healthy = %d, want 3", got)
	}
}
