package experiments

import (
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
	// sys is the deployment: client mounts and the fault-injection target.
	sys cluster.Deployment
}

// buildTestbed instantiates machine+fs with n nodes. mutateVAST, when
// non-nil, adjusts the VAST config before instantiation (ablations,
// what-if candidates).
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
	sys, err := cluster.Deploy(cl, string(fs), mutateVAST)
	if err != nil {
		return nil, err
	}
	tb := &testbed{env: env, fab: fab, cl: cl, sys: sys}
	for _, node := range cl.Nodes() {
		tb.mounts = append(tb.mounts, sys.Mount(node.Name, node.NIC))
	}
	return tb, nil
}

// tenantMount mints tenant's own client mount on node index node, named
// "<node>/<tenant>". The benchmark engines use the prebuilt mounts (one
// per node); the traffic engine mints one mount per tenant and node
// through this, so each tenant gets its own tagged view of the same node.
func (tb *testbed) tenantMount(tenant string, node int) fsapi.Client {
	n := tb.cl.Node(node)
	return tb.sys.Mount(n.Name+"/"+tenant, n.NIC)
}

// inject registers target under name on a fresh injector and arms sched
// on it. It is the experiments' one way to fail, derate or recover
// anything: target is the deployment itself or a repair.Manager around
// it. The injector reports what was delivered (Applied).
func (tb *testbed) inject(name string, target faults.Target, sched faults.Schedule) (*faults.Injector, error) {
	inj := faults.NewInjector(tb.env)
	inj.Register(name, target)
	if err := inj.Apply(sched); err != nil {
		return nil, err
	}
	return inj, nil
}

// derate scales the deployment's server side by f (the contention model).
// Node-local NVMe and the job-private UnifyFS burst buffer have none:
// nobody else contends.
func (tb *testbed) derate(f float64) {
	if d, ok := tb.sys.(interface{ Derate(float64) }); ok {
		d.Derate(f)
	}
}

// contentionSpread is how much of fs's server-side capacity background
// users can take in a bad repetition: GPFS and Lustre are the production
// file systems everyone uses; VAST is newly deployed and node-local NVMe
// and UnifyFS are private to the job.
func contentionSpread(fs FS) float64 {
	if fs == GPFS || fs == Lustre {
		return sharedSpread
	}
	return dedicatedSpread
}
