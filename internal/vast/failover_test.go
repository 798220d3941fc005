package vast

import (
	"fmt"
	"testing"
	"time"

	"storagesim/internal/fsapi"
	"storagesim/internal/netsim"
	"storagesim/internal/sim"
)

func TestFailCNodeRePinsClients(t *testing.T) {
	env, fab, sys := newTestSystem(t)
	_ = env
	var clients []*client
	for i := 0; i < 4; i++ {
		nic := netsim.NewIface(fab, fmt.Sprintf("n%d/nic", i), 10e9, 0)
		clients = append(clients, sys.Mount(fmt.Sprintf("n%d", i), nic).(*client))
	}
	victim := clients[0].cnode
	sys.FailServer(victim)
	if sys.HealthyServers() != 3 {
		t.Fatalf("healthy = %d, want 3", sys.HealthyServers())
	}
	for i, cl := range clients {
		if cl.cnode == victim {
			t.Fatalf("client %d still pinned to failed CNode %d", i, victim)
		}
	}
}

func TestFailoverKeepsIORunning(t *testing.T) {
	// Stateless containers: a CNode dying mid-stream must not lose the
	// client's service — the transfer completes via the survivors.
	env, fab, sys := newTestSystem(t)
	cl := sys.Mount("n0", netsim.NewIface(fab, "n0/nic", 10e9, 0))
	victim := cl.(*client).cnode
	var done bool
	env.Go("w", func(p *sim.Proc) {
		f := cl.Open(p, "/f", true)
		for i := int64(0); i < 64; i++ {
			f.WriteAt(p, i<<20, 1<<20)
			f.Fsync(p)
		}
		done = true
	})
	env.Go("chaos", func(p *sim.Proc) {
		p.Sleep(5 * time.Millisecond)
		sys.FailServer(victim)
	})
	env.Run()
	if !done {
		t.Fatal("write stream did not survive the CNode failure")
	}
	if got := cl.(*client).cnode; got == victim {
		t.Fatalf("client never failed over from CNode %d", got)
	}
}

func TestFailureCostsCapacityOnly(t *testing.T) {
	// On a spread (multipath) deployment, failing half the CNodes halves
	// the reduction pool, so sustained write bandwidth halves — capacity
	// loss, not outage.
	measure := func(fail int) float64 {
		env := sim.NewEnv()
		fab := sim.NewFabric(env)
		tr := &netsim.TCPTransport{PerConnBW: 100e9, Connections: 1}
		cfg := testConfig(tr)
		cfg.SpreadAcrossCNodes = true
		sys := MustNew(env, fab, cfg)
		cl := sys.Mount("n0", netsim.NewIface(fab, "n0/nic", 100e9, 0))
		for i := 0; i < fail; i++ {
			sys.FailServer(i)
		}
		const total = 8 << 30
		var end sim.Time
		env.Go("w", func(p *sim.Proc) {
			cl.StreamWrite(p, "/f", fsapi.Sequential, 1<<20, total)
			end = p.Now()
		})
		env.Run()
		return float64(total) / sim.Duration(end).Seconds()
	}
	full, degraded := measure(0), measure(2)
	ratio := degraded / full
	if ratio < 0.4 || ratio > 0.6 {
		t.Fatalf("failing 2 of 4 CNodes scaled writes by %.2f, want ~0.5", ratio)
	}
}

func TestCannotFailLastCNode(t *testing.T) {
	_, _, sys := newTestSystem(t)
	sys.FailServer(0)
	sys.FailServer(1)
	sys.FailServer(2)
	defer func() {
		if recover() == nil {
			t.Fatal("failing the last CNode did not panic")
		}
	}()
	sys.FailServer(3)
}

func TestMountSkipsFailedCNode(t *testing.T) {
	_, fab, sys := newTestSystem(t)
	sys.FailServer(0)
	// Mount rotation would assign CNode 0 to the first mount; it must skip.
	cl := sys.Mount("n0", netsim.NewIface(fab, "n0/nic", 10e9, 0)).(*client)
	if cl.cnode == 0 {
		t.Fatal("new mount pinned to a failed CNode")
	}
}
