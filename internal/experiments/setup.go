package experiments

import (
	"storagesim/internal/cluster"
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
	for i := 0; i < n; i++ {
		tb.mounts = append(tb.mounts, tb.mount(cl.Node(i).Name, i))
	}
	return tb, nil
}

// mount mints one more client mount named name on node index i. The
// benchmark engines use the prebuilt mounts (one per node); the traffic
// engine mints extra per-tenant mounts through this so each tenant gets
// its own tagged view of the same node.
func (tb *testbed) mount(name string, i int) fsapi.Client {
	return tb.sys.Mount(name, tb.cl.Node(i).NIC)
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
