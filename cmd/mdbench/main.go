// Command mdbench runs the MDTest-style metadata benchmark against any
// machine/file-system combination: each rank creates a tree of files and
// re-opens a peer's tree, and the tool reports aggregate creates/sec and
// opens/sec.
//
// Example:
//
//	mdbench -machine Lassen -fs gpfs -nodes 4 -ppn 16 -files 256
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"storagesim/internal/cluster"
	"storagesim/internal/fsapi"
	"storagesim/internal/mdtest"
	"storagesim/internal/sim"
)

func main() {
	machine := flag.String("machine", "Lassen", "Lassen, Ruby, Quartz or Wombat")
	fs := flag.String("fs", "vast", "vast (any machine), gpfs (Lassen), lustre (Ruby, Quartz), nvme or unifyfs (Wombat)")
	nodes := flag.Int("nodes", 1, "compute nodes")
	ppn := flag.Int("ppn", 8, "processes per node")
	files := flag.Int("files", 128, "files per rank")
	flag.Parse()

	env := sim.NewEnv()
	fab := sim.NewFabric(env)
	spec, err := cluster.MachineByName(*machine)
	if err != nil {
		fail(err)
	}
	cl, err := cluster.New(env, fab, spec, *nodes)
	if err != nil {
		fail(err)
	}
	mounts, err := mountAll(cl, strings.ToLower(*fs))
	if err != nil {
		fail(err)
	}
	res, err := mdtest.Run(env, mounts, mdtest.Config{
		FilesPerRank: *files,
		ProcsPerNode: *ppn,
		Dir:          "/mdbench",
	})
	if err != nil {
		fail(err)
	}
	fmt.Printf("machine=%s fs=%s nodes=%d ppn=%d files/rank=%d\n", *machine, *fs, *nodes, *ppn, *files)
	fmt.Printf("  creates: %10.0f /s (%v)\n", res.CreatesPerSec, res.CreateTime)
	fmt.Printf("  opens:   %10.0f /s (%v)\n", res.OpensPerSec, res.OpenTime)
	fmt.Printf("  removes: %10.0f /s (%v)\n", res.RemovesPerSec, res.RemoveTime)
}

// mountAll deploys the requested file system on the cluster and mounts
// every node.
func mountAll(cl *cluster.Cluster, fs string) ([]fsapi.Client, error) {
	sys, err := cluster.Deploy(cl, fs, nil)
	if err != nil {
		return nil, err
	}
	var mounts []fsapi.Client
	for _, n := range cl.Nodes() {
		mounts = append(mounts, sys.Mount(n.Name, n.NIC))
	}
	return mounts, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "mdbench:", err)
	os.Exit(1)
}
