package cluster

import (
	"fmt"
	"strings"
	"time"

	"storagesim/internal/faults"
	"storagesim/internal/fsapi"
	"storagesim/internal/gpfs"
	"storagesim/internal/lustre"
	"storagesim/internal/netsim"
	"storagesim/internal/nvmelocal"
	"storagesim/internal/unifyfs"
	"storagesim/internal/vast"
)

// Deployment is a storage system wired onto a cluster, as the harnesses
// and commands drive it: per-node client mounts and the fault-injection
// surface every backend implements.
type Deployment interface {
	faults.Target
	Mount(node string, nic *netsim.Iface) fsapi.Client
}

// deployments is the (machine, backend) table: every storage deployment
// the experiments and commands run, under the backend names they use.
// Each VAST entry starts from its machine's config, so a caller's mutation
// applies on every machine.
var deployments = []struct {
	machine, backend string
	build            func(c *Cluster, mutateVAST func(*vast.Config)) (Deployment, error)
}{
	{"Lassen", "vast", vastFrom(LassenVASTConfig)},
	{"Ruby", "vast", vastFrom(RubyVASTConfig)},
	{"Quartz", "vast", vastFrom(QuartzVASTConfig)},
	{"Wombat", "vast", vastFrom(WombatVASTConfig)},
	{"Lassen", "gpfs", fixed(GPFSOnLassen)},
	{"Ruby", "lustre", fixed(LustreOn)},
	{"Quartz", "lustre", fixed(LustreOn)},
	{"Wombat", "nvme", fixed(NVMeOnWombat)},
	{"Wombat", "unifyfs", fixed(UnifyFSOnWombat)},
}

// Deploy builds backend ("vast", "gpfs", "lustre", "nvme" or "unifyfs") on
// the cluster's machine. mutateVAST, when non-nil, adjusts a VAST config
// before instantiation (ablations, what-if candidates); other backends
// ignore it.
func Deploy(c *Cluster, backend string, mutateVAST func(*vast.Config)) (Deployment, error) {
	for _, d := range deployments {
		if d.machine == c.Spec.Name && d.backend == backend {
			return d.build(c, mutateVAST)
		}
	}
	return nil, fmt.Errorf("cluster: no deployment of %s on %s", backend, c.Spec.Name)
}

// vastFrom is a VAST table entry: the machine's config, mutated, then
// instantiated.
func vastFrom(config func(*Cluster) vast.Config) func(*Cluster, func(*vast.Config)) (Deployment, error) {
	return func(c *Cluster, mutate func(*vast.Config)) (Deployment, error) {
		cfg := config(c)
		if mutate != nil {
			mutate(&cfg)
		}
		sys, err := vast.New(c.Env, c.Fab, cfg)
		if err != nil {
			return nil, err
		}
		return sys, nil
	}
}

// fixed is a table entry for a backend without tunables.
func fixed[S Deployment](build func(*Cluster) S) func(*Cluster, func(*vast.Config)) (Deployment, error) {
	return func(c *Cluster, _ func(*vast.Config)) (Deployment, error) { return build(c), nil }
}

// Deployment constructors: each wires one of the paper's storage systems
// onto an instantiated cluster exactly as Section IV-B describes.

// VASTOnLassen builds the LC VAST instance reached through Lassen's single
// gateway node (2×100 Gb Ethernet, one NFS/TCP connection per client).
func VASTOnLassen(c *Cluster) *vast.System {
	return vast.MustNew(c.Env, c.Fab, LassenVASTConfig(c))
}

// LassenVASTConfig returns the LC VAST deployment as mounted from Lassen.
func LassenVASTConfig(c *Cluster) vast.Config {
	gw := netsim.NewLinkBank(c.Fab, "lassen-gw", lassenGateways, lassenGatewayLinkBW, gatewayLatency)
	return vastLCConfig("vast-lassen", &netsim.TCPTransport{
		Gateways:    gw,
		PerConnBW:   nfsTCPPerConnBWLassen,
		Connections: 1,
		RPC:         nfsTCPRPC,
	})
}

// VASTOnRuby builds the same LC instance reached through Ruby's eight
// 1×40 Gb gateway nodes.
func VASTOnRuby(c *Cluster) *vast.System {
	return vast.MustNew(c.Env, c.Fab, RubyVASTConfig(c))
}

// RubyVASTConfig returns the LC VAST deployment as mounted from Ruby —
// exported so the what-if surrogate can read the deployment's real
// parameters instead of restating them.
func RubyVASTConfig(c *Cluster) vast.Config {
	gw := netsim.NewLinkBank(c.Fab, "ruby-gw", rubyGateways, rubyGatewayLinkBW, gatewayLatency)
	return vastLCConfig("vast-ruby", &netsim.TCPTransport{
		Gateways:    gw,
		PerConnBW:   nfsTCPPerConnBWRuby,
		Connections: 1,
		RPC:         nfsTCPRPC,
	})
}

// VASTOnQuartz builds the LC instance reached through Quartz's 32 gateway
// nodes with tiny 2×1 Gb links — the paper's weakest deployment.
func VASTOnQuartz(c *Cluster) *vast.System {
	return vast.MustNew(c.Env, c.Fab, QuartzVASTConfig(c))
}

// QuartzVASTConfig returns the LC VAST deployment as mounted from Quartz.
func QuartzVASTConfig(c *Cluster) vast.Config {
	gw := netsim.NewLinkBank(c.Fab, "quartz-gw", quartzGateways, quartzGatewayLinkBW, gatewayLatency)
	return vastLCConfig("vast-quartz", &netsim.TCPTransport{
		Gateways:    gw,
		PerConnBW:   nfsTCPPerConnBWQuartz,
		Connections: 1,
		RPC:         nfsTCPRPC,
	})
}

// vastLCConfig is the shared LC VAST hardware (ten DNodes, 16 CNodes, five
// DBoxes of 6 SCM + 22 QLC SSDs) behind the given transport.
func vastLCConfig(name string, tr netsim.Transport) vast.Config {
	return vast.Config{
		Name:             name,
		CNodes:           vastLCCNodes,
		DBoxes:           vastLCDBoxes,
		DNodesPerDBox:    2,
		SCMPerDBox:       vastLCSCMPerDB,
		QLCPerDBox:       vastLCQLCPerDB,
		CNodeNICBW:       12.5e9,
		ReduceBWPerCNode: cnodeReduceBW * 2, // 16 CNodes: 32 GB/s ingest pool
		FabricBWPerDBox:  vastFabricPerDBoxLC,
		FabricLatency:    5 * time.Microsecond,
		SCMReplicas:      scmReplicas,
		Transport:        tr,
		ClientCacheBytes: nfsClientCacheBytes,
		CacheBlockBytes:  cacheBlockBytes,
		DNodeCacheBytes:  dnodeCacheBytes,
		MetaLatency:      vastMetaLatency,
		SCMStagingBytes:  int64(vastLCSCMPerDB*vastLCDBoxes) * scmBytesPerSSD,
		ReductionRatio:   vastReductionRatio,
	}
}

// VASTOnWombat builds the Wombat instance: 8 CNodes / 8 DNodes (BlueField
// DPUs), NFS over RDMA with nconnect=16 and multipathing.
func VASTOnWombat(c *Cluster) *vast.System {
	return vast.MustNew(c.Env, c.Fab, WombatVASTConfig(c))
}

// WombatVASTConfig returns the Wombat VAST deployment configuration; the
// ablation experiments mutate it (fabric bandwidth, nconnect, CNode count)
// before instantiating the system.
func WombatVASTConfig(c *Cluster) vast.Config {
	rails := netsim.NewLinkBank(c.Fab, "wombat-rails", vastWombatCNodes, 12.5e9, 5*time.Microsecond)
	return vast.Config{
		Name:             "vast-wombat",
		CNodes:           vastWombatCNodes,
		DBoxes:           vastWombatDBoxes,
		DNodesPerDBox:    2,
		SCMPerDBox:       vastWombatSCMPerDB,
		QLCPerDBox:       vastWombatQLCPerDB,
		CNodeNICBW:       12.5e9,
		ReduceBWPerCNode: cnodeReduceBW,
		FabricBWPerDBox:  vastFabricPerDBoxWombat,
		FabricLatency:    5 * time.Microsecond,
		SCMReplicas:      scmReplicas,
		Transport: &netsim.RDMATransport{
			Rails:       rails,
			PerConnBW:   nfsRDMAPerConnBW,
			Connections: nconnectWombat,
			Multipath:   true,
			RPC:         nfsRDMARPC,
		},
		ClientCacheBytes:   nfsClientCacheBytes,
		CacheBlockBytes:    cacheBlockBytes,
		DNodeCacheBytes:    dnodeCacheBytes,
		MetaLatency:        vastMetaLatency,
		SpreadAcrossCNodes: true, // multipath spreads nconnect across CNodes
		SCMStagingBytes:    int64(vastWombatSCMPerDB*vastWombatDBoxes) * scmBytesPerSSD,
		ReductionRatio:     vastReductionRatio,
	}
}

// GPFSOnLassen builds Lassen's 16-NSD GPFS instance on the IB SAN.
func GPFSOnLassen(c *Cluster) *gpfs.System {
	return gpfs.MustNew(c.Env, c.Fab, GPFSLassenConfig(c))
}

// GPFSLassenConfig returns the Lassen GPFS deployment parameters.
func GPFSLassenConfig(c *Cluster) gpfs.Config {
	return gpfs.Config{
		Name:             "gpfs-lassen",
		NSDServers:       gpfsNSDServers,
		ServerNICBW:      gpfsServerNICBW,
		RaidPerServer:    GPFSRaidPerServer(),
		ServerCacheBytes: gpfsServerCacheBytes,
		ServerMemBW:      gpfsServerMemBW,
		ClientCacheBytes: gpfsClientCacheBytes,
		CacheBlockBytes:  cacheBlockBytes,
		ClientStreamCap:  gpfsClientStreamCap,
		ClientWriteCap:   gpfsClientWriteCap,
		RPCLatency:       gpfsRPCLatency,
	}
}

// LustreOn builds the LC Lustre instance (16 MDS, 36 OSS) as mounted on
// Ruby or Quartz.
func LustreOn(c *Cluster) *lustre.System {
	return lustre.MustNew(c.Env, c.Fab, LustreConfig(c))
}

// LustreConfig returns the LC Lustre deployment parameters.
func LustreConfig(c *Cluster) lustre.Config {
	return lustre.Config{
		Name:             "lustre-" + c.Spec.Name,
		MDSCount:         lustreMDSCount,
		MDSLatency:       lustreMDSLatency,
		OSSCount:         lustreOSSCount,
		OSTPerOSS:        LustreOSTPerOSS(),
		ServerNICBW:      lustreServerNICBW,
		ClientCacheBytes: lustreClientCacheBytes,
		CacheBlockBytes:  cacheBlockBytes,
		RPCLatency:       lustreRPCLatency,
	}
}

// NVMeOnWombat builds the node-local NVMe baseline with the Wombat
// interconnect for round-robin remote reads.
func NVMeOnWombat(c *Cluster) *nvmelocal.System {
	return nvmelocal.MustNew(c.Env, c.Fab, NVMeWombatConfig(c))
}

// NVMeWombatConfig returns the node-local NVMe deployment parameters.
func NVMeWombatConfig(c *Cluster) nvmelocal.Config {
	ic := netsim.NewLinkBank(c.Fab, "wombat-ic", 1, 100e9, 2*time.Microsecond)
	dirty := int64(float64(int64(c.Spec.RAMGB)<<30) * nvmeDirtyFrac)
	return nvmelocal.Config{
		Name:            "nvme-wombat",
		PerNode:         NVMePerNode(),
		MemBW:           nvmeMemBW,
		DirtyLimitBytes: dirty,
		PageCacheBytes:  nvmePageCacheBytes,
		CacheBlockBytes: cacheBlockBytes,
		Interconnect:    ic,
	}
}

// UnifyFSOnWombat builds a UnifyFS burst buffer over Wombat's node-local
// NVMe — the paper's other example of a highly configurable storage
// system (Section I). Placement and I/O-server count are the configurable
// policies; callers can mutate the returned config before instantiation
// via UnifyFSWombatConfig.
func UnifyFSOnWombat(c *Cluster) *unifyfs.System {
	return unifyfs.MustNew(c.Env, c.Fab, UnifyFSWombatConfig(c))
}

// UnifyFSWombatConfig returns the default Wombat UnifyFS deployment:
// local-first placement (the checkpoint/restart design point), one chunk
// per MiB, four I/O servers per node.
func UnifyFSWombatConfig(c *Cluster) unifyfs.Config {
	return unifyfs.Config{
		Name:             "unifyfs-wombat",
		PerNode:          NVMePerNode(),
		Placement:        unifyfs.LocalFirst,
		ChunkBytes:       cacheBlockBytes,
		IOServersPerNode: 4,
		ServerLatency:    50 * time.Microsecond,
		Interconnect:     netsim.NewLinkBank(c.Fab, "wombat-ufs-ic", 1, 100e9, 2*time.Microsecond),
	}
}

// TableI renders the paper's Table I from the machine specs.
func TableI() string {
	out := "TABLE I: Clusters used for experiments\n"
	row := func(cells ...string) {
		line := fmt.Sprintf("%-8s %6s %5s %4s %6s %-18s %s",
			cells[0], cells[1], cells[2], cells[3], cells[4], cells[5], cells[6])
		out += strings.TrimRight(line, " ") + "\n"
	}
	row("Name", "Nodes", "CPU", "GPU", "RAM", "Arch", "Network")
	for _, m := range Machines() {
		row(m.Name, fmt.Sprint(m.Nodes), fmt.Sprint(m.CPUsPerNode), fmt.Sprint(m.GPUsPerNode),
			fmt.Sprint(m.RAMGB), m.Arch, m.Network)
	}
	return out
}
