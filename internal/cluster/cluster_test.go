package cluster

import (
	"slices"
	"strings"
	"testing"

	"storagesim/internal/sim"
	"storagesim/internal/vast"
)

func TestMachinesMatchTableI(t *testing.T) {
	ms := Machines()
	if len(ms) != 4 {
		t.Fatalf("machines = %d, want 4", len(ms))
	}
	want := []struct {
		name  string
		nodes int
		cpus  int
		gpus  int
		ram   int
	}{
		{"Lassen", 795, 44, 4, 256},
		{"Ruby", 1512, 56, 0, 192},
		{"Quartz", 3018, 36, 0, 128},
		{"Wombat", 8, 48, 2, 512},
	}
	for i, w := range want {
		m := ms[i]
		if m.Name != w.name || m.Nodes != w.nodes || m.CPUsPerNode != w.cpus ||
			m.GPUsPerNode != w.gpus || m.RAMGB != w.ram {
			t.Errorf("row %d = %+v, want %+v", i, m, w)
		}
		if m.NodeNICBW <= 0 {
			t.Errorf("%s has no NIC bandwidth", m.Name)
		}
	}
}

func TestMachineByName(t *testing.T) {
	m, err := MachineByName("Wombat")
	if err != nil || m.Name != "Wombat" {
		t.Fatalf("lookup failed: %v %v", m, err)
	}
	if _, err := MachineByName("Frontier"); err == nil {
		t.Fatal("unknown machine accepted")
	}
}

func TestClusterInstantiation(t *testing.T) {
	env := sim.NewEnv()
	fab := sim.NewFabric(env)
	c, err := New(env, fab, LassenSpec(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if c.Size() != 4 || len(c.Nodes()) != 4 {
		t.Fatalf("size = %d", c.Size())
	}
	names := map[string]bool{}
	for i := 0; i < 4; i++ {
		n := c.Node(i)
		if n.NIC == nil {
			t.Fatalf("node %d has no NIC", i)
		}
		if names[n.Name] {
			t.Fatalf("duplicate node name %s", n.Name)
		}
		names[n.Name] = true
	}
}

func TestClusterBounds(t *testing.T) {
	env := sim.NewEnv()
	fab := sim.NewFabric(env)
	if _, err := New(env, fab, WombatSpec(), 9); err == nil {
		t.Fatal("oversubscribed Wombat accepted (has 8 nodes)")
	}
	if _, err := New(env, fab, WombatSpec(), 0); err == nil {
		t.Fatal("zero nodes accepted")
	}
}

func TestTableIRendering(t *testing.T) {
	out := TableI()
	for _, want := range []string{"Lassen", "Ruby", "Quartz", "Wombat", "IB EDR", "Omni-Path", "795", "3018"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I missing %q", want)
		}
	}
}

func TestDeploymentsConstruct(t *testing.T) {
	env := sim.NewEnv()
	fab := sim.NewFabric(env)
	lassen := MustNew(env, fab, LassenSpec(), 2)
	if VASTOnLassen(lassen) == nil || GPFSOnLassen(lassen) == nil {
		t.Fatal("Lassen deployments nil")
	}
	ruby := MustNew(env, fab, RubySpec(), 2)
	if VASTOnRuby(ruby) == nil || LustreOn(ruby) == nil {
		t.Fatal("Ruby deployments nil")
	}
	quartz := MustNew(env, fab, QuartzSpec(), 2)
	if VASTOnQuartz(quartz) == nil || LustreOn(quartz) == nil {
		t.Fatal("Quartz deployments nil")
	}
	wombat := MustNew(env, fab, WombatSpec(), 2)
	if VASTOnWombat(wombat) == nil || NVMeOnWombat(wombat) == nil {
		t.Fatal("Wombat deployments nil")
	}
}

// TestDeployTable: Deploy builds exactly the table's (machine, backend)
// pairs, and a VAST config mutation reaches the deployment on every
// machine, not only on Wombat.
func TestDeployTable(t *testing.T) {
	offered := map[string][]string{
		"Lassen": {"vast", "gpfs"},
		"Ruby":   {"vast", "lustre"},
		"Quartz": {"vast", "lustre"},
		"Wombat": {"vast", "nvme", "unifyfs"},
	}
	const cacheBytes = 1 << 30
	for _, m := range Machines() {
		for _, backend := range []string{"vast", "gpfs", "lustre", "nvme", "unifyfs"} {
			env := sim.NewEnv()
			c := MustNew(env, sim.NewFabric(env), m, 1)
			d, err := Deploy(c, backend, func(cfg *vast.Config) { cfg.ClientCacheBytes = cacheBytes })
			if !slices.Contains(offered[m.Name], backend) {
				if err == nil {
					t.Errorf("Deploy(%s, %s) built a deployment the table lacks", m.Name, backend)
				}
				continue
			}
			if err != nil {
				t.Errorf("Deploy(%s, %s): %v", m.Name, backend, err)
				continue
			}
			if v, ok := d.(*vast.System); ok != (backend == "vast") || ok && v.Config().ClientCacheBytes != cacheBytes {
				t.Errorf("Deploy(%s, %s) = %T without the VAST mutation applied", m.Name, backend, d)
			}
		}
	}
}

func TestWombatVASTConfigMatchesPaper(t *testing.T) {
	env := sim.NewEnv()
	fab := sim.NewFabric(env)
	c := MustNew(env, fab, WombatSpec(), 1)
	cfg := WombatVASTConfig(c)
	if cfg.CNodes != 8 {
		t.Errorf("Wombat CNodes = %d, want 8", cfg.CNodes)
	}
	if !cfg.SpreadAcrossCNodes {
		t.Error("Wombat must spread nconnect across CNodes (multipath)")
	}
	if cfg.SCMReplicas != 2 {
		t.Errorf("SCM replicas = %d, want 2", cfg.SCMReplicas)
	}
}

func TestGatewaySpecsMatchSectionIVB(t *testing.T) {
	// Lassen: 1 gateway x 2x100Gb = 25 GB/s; Ruby: 8 x 40Gb = 5 GB/s each;
	// Quartz: 32 x 2x1Gb = 0.25 GB/s each.
	if lassenGateways != 1 || lassenGatewayLinkBW != 25e9 {
		t.Errorf("Lassen gateway: %d x %v", lassenGateways, lassenGatewayLinkBW)
	}
	if rubyGateways != 8 || rubyGatewayLinkBW != 5e9 {
		t.Errorf("Ruby gateway: %d x %v", rubyGateways, rubyGatewayLinkBW)
	}
	if quartzGateways != 32 || quartzGatewayLinkBW != 0.25e9 {
		t.Errorf("Quartz gateway: %d x %v", quartzGateways, quartzGatewayLinkBW)
	}
}

func TestDeviceSpecsValid(t *testing.T) {
	for _, s := range []interface{ Validate() error }{
		ptr(GPFSRaidPerServer()), ptr(LustreOSTPerOSS()), ptr(NVMePerNode()),
	} {
		if err := s.Validate(); err != nil {
			t.Errorf("deployment device spec invalid: %v", err)
		}
	}
}

func ptr[T any](v T) *T { return &v }
