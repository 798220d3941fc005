package experiments

import (
	"fmt"

	"storagesim/internal/cluster"
	"storagesim/internal/fsapi"
	"storagesim/internal/ior"
	"storagesim/internal/sim"
	"storagesim/internal/unifyfs"
)

// AblationUnifyFS sweeps the two configuration policies the paper's
// introduction names for UnifyFS — "the number of dedicated I/O servers
// and the data placement strategy" — over the Wombat burst buffer, and
// reports write and read-back bandwidth for a checkpoint/restart-shaped
// workload (HACC-style: sequential write, reordered sequential read).
func AblationUnifyFS(opts Options) (Table, error) {
	opts = opts.withDefaults()
	t := Table{
		ID:     "ablation-unifyfs",
		Title:  "UnifyFS configurability on Wombat (4 nodes, checkpoint/restart)",
		Header: []string{"placement", "I/O servers/node", "write GB/s", "read-back GB/s"},
	}
	servers := []int{1, 4, 16}
	if opts.Quick {
		servers = []int{1, 16}
	}
	placements := []unifyfs.Placement{unifyfs.LocalFirst, unifyfs.RoundRobin}
	runs, err := runPoints(len(placements)*len(servers), func(i int) (ior.Result, error) {
		return unifyFSPoint(placements[i/len(servers)], servers[i%len(servers)], opts)
	})
	if err != nil {
		return Table{}, err
	}
	for i, res := range runs {
		t.Rows = append(t.Rows, []string{
			placements[i/len(servers)].String(), fmt.Sprint(servers[i%len(servers)]),
			fmt.Sprintf("%.2f", res.WriteBW/1e9), fmt.Sprintf("%.2f", res.ReadBW/1e9),
		})
	}
	t.Notes = append(t.Notes,
		"local-first wins checkpoints (all writes local); round-robin balances the restart reads",
		"the I/O-server pool bounds op-level request concurrency per node")
	return t, nil
}

// unifyFSPoint runs one HACC-shaped IOR configuration on a UnifyFS
// deployment with the given policies.
func unifyFSPoint(pl unifyfs.Placement, servers int, opts Options) (ior.Result, error) {
	env := sim.NewEnv()
	fab := sim.NewFabric(env)
	cl, err := cluster.New(env, fab, cluster.WombatSpec(), 4)
	if err != nil {
		return ior.Result{}, err
	}
	cfg := cluster.UnifyFSWombatConfig(cl)
	cfg.Placement = pl
	cfg.IOServersPerNode = servers
	sys, err := unifyfs.New(env, fab, cfg)
	if err != nil {
		return ior.Result{}, err
	}
	var mounts []fsapi.Client
	for _, n := range cl.Nodes() {
		mounts = append(mounts, sys.Mount(n.Name, n.NIC))
	}
	segments := 128
	if opts.Quick {
		segments = 48
	}
	return ior.Run(env, mounts, ior.Config{
		Workload:     ior.Analytics, // write + reordered read back
		BlockSize:    1 << 20,
		TransferSize: 1 << 20,
		Segments:     segments,
		ProcsPerNode: 8,
		ReorderTasks: true,
		OpLevel:      true, // the I/O-server pool is an op-level effect
		Seed:         opts.Seed,
		Dir:          "/ufs",
	})
}
