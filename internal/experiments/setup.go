package experiments

import (
	"fmt"

	"storagesim/internal/cluster"
	"storagesim/internal/faults"
	"storagesim/internal/fsapi"
	"storagesim/internal/sim"
	"storagesim/internal/vast"
)

// FS names the storage deployments under test.
type FS string

// Deployment identifiers used across the experiments.
const (
	VAST    FS = "vast"
	GPFS    FS = "gpfs"
	Lustre  FS = "lustre"
	NVMe    FS = "nvme"
	UnifyFS FS = "unifyfs"
)

// testbed is one instantiated (machine, deployment, node count) triple.
type testbed struct {
	env    *sim.Env
	fab    *sim.Fabric
	cl     *cluster.Cluster
	mounts []fsapi.Client
	// mount mints one more client mount named name on node index i. The
	// benchmark engines use the prebuilt mounts (one per node); the traffic
	// engine mints extra per-tenant mounts through this so each tenant gets
	// its own tagged view of the same node.
	mount func(name string, i int) fsapi.Client
	// derate scales the deployment's server side (contention model).
	derate func(f float64)
	// shared reports whether the deployment is a production shared system
	// (GPFS, Lustre) or dedicated (VAST, node-local NVMe).
	shared bool
	// vast holds the VAST system when the testbed is a VAST deployment
	// (failover and staging studies need the concrete type).
	vast *vast.System
	// target is the deployment as a fault-injection target (every backend
	// implements faults.Target).
	target faults.Target
}

// buildTestbed instantiates machine+fs with n nodes. mutateVAST, when
// non-nil, adjusts the VAST config before instantiation (ablations).
func buildTestbed(machine string, fs FS, n int, mutateVAST func(*vast.Config)) (*testbed, error) {
	env := sim.NewEnv()
	return buildTestbedOn(env, sim.NewFabric(env), machine, fs, n, mutateVAST)
}

// buildTestbedOn is buildTestbed on a caller-owned env and fabric — the
// domain-sharded experiments build one testbed per rack shard, each on the
// shard's own Env, so racks advance in the group's windows.
func buildTestbedOn(env *sim.Env, fab *sim.Fabric, machine string, fs FS, n int, mutateVAST func(*vast.Config)) (*testbed, error) {
	spec, err := cluster.MachineByName(machine)
	if err != nil {
		return nil, err
	}
	cl, err := cluster.New(env, fab, spec, n)
	if err != nil {
		return nil, err
	}
	tb := &testbed{env: env, fab: fab, cl: cl}
	mountAll := func(mount func(string, int) fsapi.Client) {
		tb.mount = mount
		for i := 0; i < n; i++ {
			tb.mounts = append(tb.mounts, mount(cl.Node(i).Name, i))
		}
	}
	switch {
	case fs == VAST && machine == "Wombat":
		cfg := cluster.WombatVASTConfig(cl)
		if mutateVAST != nil {
			mutateVAST(&cfg)
		}
		sys, err := vast.New(env, fab, cfg)
		if err != nil {
			return nil, err
		}
		mountAll(func(name string, i int) fsapi.Client { return sys.Mount(name, cl.Node(i).NIC) })
		tb.derate = sys.Derate
		tb.vast = sys
		tb.target = sys
	case fs == VAST && machine == "Lassen":
		sys := cluster.VASTOnLassen(cl)
		mountAll(func(name string, i int) fsapi.Client { return sys.Mount(name, cl.Node(i).NIC) })
		tb.derate = sys.Derate
		tb.vast = sys
		tb.target = sys
	case fs == VAST && machine == "Ruby":
		sys := cluster.VASTOnRuby(cl)
		mountAll(func(name string, i int) fsapi.Client { return sys.Mount(name, cl.Node(i).NIC) })
		tb.derate = sys.Derate
		tb.vast = sys
		tb.target = sys
	case fs == VAST && machine == "Quartz":
		sys := cluster.VASTOnQuartz(cl)
		mountAll(func(name string, i int) fsapi.Client { return sys.Mount(name, cl.Node(i).NIC) })
		tb.derate = sys.Derate
		tb.vast = sys
		tb.target = sys
	case fs == GPFS && machine == "Lassen":
		sys := cluster.GPFSOnLassen(cl)
		mountAll(func(name string, i int) fsapi.Client { return sys.Mount(name, cl.Node(i).NIC) })
		tb.derate = sys.Derate
		tb.shared = true
		tb.target = sys
	case fs == Lustre && (machine == "Ruby" || machine == "Quartz"):
		sys := cluster.LustreOn(cl)
		mountAll(func(name string, i int) fsapi.Client { return sys.Mount(name, cl.Node(i).NIC) })
		tb.derate = sys.Derate
		tb.shared = true
		tb.target = sys
	case fs == NVMe && machine == "Wombat":
		sys := cluster.NVMeOnWombat(cl)
		mountAll(func(name string, i int) fsapi.Client { return sys.Mount(name, cl.Node(i).NIC) })
		tb.derate = func(float64) {} // node-local: nobody else contends
		tb.target = sys
	case fs == UnifyFS && machine == "Wombat":
		sys := cluster.UnifyFSOnWombat(cl)
		mountAll(func(name string, i int) fsapi.Client { return sys.Mount(name, cl.Node(i).NIC) })
		tb.derate = func(float64) {} // job-private burst buffer
		tb.target = sys
	default:
		return nil, fmt.Errorf("experiments: no deployment of %s on %s", fs, machine)
	}
	return tb, nil
}

// spread returns the contention spread for the testbed's deployment class.
func (tb *testbed) spread() float64 {
	if tb.shared {
		return sharedSpread
	}
	return dedicatedSpread
}
