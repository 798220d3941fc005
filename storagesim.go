// Package storagesim is a deterministic discrete-event simulator of highly
// configurable HPC storage, built to reproduce "Understanding Highly
// Configurable Storage for Diverse Workloads" (Kogiou et al., IEEE CLUSTER
// 2024). It models the VAST DataStore (CNodes, DBoxes, SCM write staging,
// QLC backbone) under its NFS/TCP-gateway and NFS/RDMA deployments, plus
// the paper's comparison systems — GPFS, Lustre and node-local NVMe — on
// simulated Lassen, Ruby, Quartz and Wombat clusters, and re-implements the
// IOR and DLIO benchmarks with a DFTracer-style I/O trace analysis on top.
//
// This root package is the public facade: it re-exports the stable API and
// offers one-call helpers for the common flows. The architecture lives in
// the internal packages (see DESIGN.md):
//
//	sim      — event kernel, processes, max–min fair bandwidth solver
//	netsim   — links, gateways, NFS/TCP and NFS/RDMA transports
//	device   — SCM/QLC/HDD/NVMe models
//	cache    — LRU page caches with readahead
//	vast, gpfs, lustre, nvmelocal — the storage systems
//	cluster  — Table I machines and Section IV-B deployments
//	ior, dlio, trace — the benchmarks and the tracer
//	experiments — every table and figure of the evaluation
//
// Quick start:
//
//	s := storagesim.New()
//	cl, _ := s.Cluster("Lassen", 4)
//	vast := storagesim.VASTOnLassen(cl)
//	mounts := storagesim.MountAll(vast, cl)
//	res, _ := storagesim.RunIOR(s.Env, mounts, storagesim.IORConfig{
//		Workload: storagesim.Scientific, BlockSize: 1 << 20,
//		TransferSize: 1 << 20, Segments: 100, ProcsPerNode: 44,
//	})
//	fmt.Println(res)
package storagesim

import (
	"storagesim/internal/cluster"
	"storagesim/internal/dlio"
	"storagesim/internal/experiments"
	"storagesim/internal/faults"
	"storagesim/internal/fsapi"
	"storagesim/internal/gpfs"
	"storagesim/internal/ior"
	"storagesim/internal/lustre"
	"storagesim/internal/mdtest"
	"storagesim/internal/netsim"
	"storagesim/internal/nvmelocal"
	"storagesim/internal/repair"
	"storagesim/internal/replay"
	"storagesim/internal/sim"
	"storagesim/internal/trace"
	"storagesim/internal/traffic"
	"storagesim/internal/vast"
	"storagesim/internal/workloads"
)

// Core re-exports.
type (
	// Env is the discrete-event simulation environment.
	Env = sim.Env
	// Proc is a simulated process.
	Proc = sim.Proc
	// Fabric is the bandwidth-sharing system all pipes live on.
	Fabric = sim.Fabric
	// Client is a per-node mount of a simulated file system.
	Client = fsapi.Client
	// File is an open file handle.
	File = fsapi.File
	// Cluster is an instantiated set of compute nodes.
	Cluster = cluster.Cluster
	// MachineSpec is one Table I row.
	MachineSpec = cluster.MachineSpec
	// IORConfig parameterizes an IOR run.
	IORConfig = ior.Config
	// IORResult is an IOR outcome.
	IORResult = ior.Result
	// DLIOConfig parameterizes a DLIO run.
	DLIOConfig = dlio.Config
	// DLIOResult is a DLIO outcome.
	DLIOResult = dlio.Result
	// TraceRecorder collects read/compute spans.
	TraceRecorder = trace.Recorder
	// TraceAnalysis is the overlap decomposition.
	TraceAnalysis = trace.Analysis
	// ExperimentOptions controls the paper-figure sweeps.
	ExperimentOptions = experiments.Options
	// Panel is a reproduced figure panel.
	Panel = experiments.Panel
	// ResultTable is a reproduced table.
	ResultTable = experiments.Table
	// VASTSystem, GPFSSystem, LustreSystem, NVMeSystem are the storage
	// deployments.
	VASTSystem   = vast.System
	GPFSSystem   = gpfs.System
	LustreSystem = lustre.System
	NVMeSystem   = nvmelocal.System
	// VASTConfig is the VAST deployment parameter set (for custom builds).
	VASTConfig = vast.Config
	// FaultSchedule is a timed list of fault events to inject into a run.
	FaultSchedule = faults.Schedule
	// FaultEvent is one scheduled fault or repair.
	FaultEvent = faults.Event
	// FaultInjector arms schedules on registered targets.
	FaultInjector = faults.Injector
	// RepairQoS governs background rebuild traffic: RateBps caps the repair
	// flows (throttled) and zero means fair-share (aggressive).
	RepairQoS = repair.QoS
	// RepairManager wraps a Protected backend with self-healing: failures
	// spawn deterministic background rebuild jobs or loss reports.
	RepairManager = repair.Manager
	// ChaosReport is the outcome of one seeded chaos storm.
	ChaosReport = experiments.ChaosReport
	// FS names a storage deployment for the experiment helpers
	// (RunIORWithRepair, RunChaosStorm): "vast", "gpfs", "lustre", "nvme"
	// or "unifyfs".
	FS = experiments.FS
)

// Deployment identifiers for the experiment helpers.
const (
	FSVAST    = experiments.VAST
	FSGPFS    = experiments.GPFS
	FSLustre  = experiments.Lustre
	FSNVMe    = experiments.NVMe
	FSUnifyFS = experiments.UnifyFS
)

// IOR workload personalities (Section V).
const (
	Scientific = ior.Scientific
	Analytics  = ior.Analytics
	ML         = ior.ML
)

// Fault event kinds (see internal/faults for the schedule semantics).
const (
	ServerFail    = faults.ServerFail
	ServerRecover = faults.ServerRecover
	LinkDerate    = faults.LinkDerate
	LinkRestore   = faults.LinkRestore
	MediaDerate   = faults.MediaDerate
	MediaRestore  = faults.MediaRestore
	UnitFail      = faults.UnitFail
	UnitRecover   = faults.UnitRecover
)

// ParseFaultSchedule parses the JSON fault-schedule format consumed by
// `iorbench -faults`.
func ParseFaultSchedule(data []byte) (FaultSchedule, error) { return faults.ParseSchedule(data) }

// Open-loop multi-tenant traffic engine (see internal/traffic).
type (
	// TrafficSpec is a multi-tenant traffic specification.
	TrafficSpec = traffic.Spec
	// TrafficConfig parameterizes one open-loop window.
	TrafficConfig = traffic.Config
	// TrafficReport is the per-tenant outcome of a window.
	TrafficReport = traffic.Report
	// RetryStormResult is the outcome of the retry-storm metastability
	// study.
	RetryStormResult = experiments.RetryStormResult
)

// ParseTenantSpec parses the JSON tenant-spec format consumed by
// `trafficbench -spec`.
func ParseTenantSpec(data []byte) (TrafficSpec, error) { return traffic.ParseSpec(data) }

// NewFaultInjector returns an injector delivering schedules through env's
// event calendar.
func NewFaultInjector(env *Env) *FaultInjector { return faults.NewInjector(env) }

// Simulation bundles an event kernel with its bandwidth fabric.
type Simulation struct {
	Env    *Env
	Fabric *Fabric
}

// New returns a fresh simulation.
func New() *Simulation {
	env := sim.NewEnv()
	return &Simulation{Env: env, Fabric: sim.NewFabric(env)}
}

// Cluster instantiates n nodes of a Table I machine ("Lassen", "Ruby",
// "Quartz", "Wombat").
func (s *Simulation) Cluster(machine string, n int) (*Cluster, error) {
	spec, err := cluster.MachineByName(machine)
	if err != nil {
		return nil, err
	}
	return cluster.New(s.Env, s.Fabric, spec, n)
}

// Machines returns the Table I machine specs.
func Machines() []MachineSpec { return cluster.Machines() }

// TableI renders the paper's Table I.
func TableI() string { return cluster.TableI() }

// Deployment constructors (Section IV-B).
var (
	// VASTOnLassen is the NFS/TCP single-gateway deployment.
	VASTOnLassen = cluster.VASTOnLassen
	// VASTOnRuby is the eight-gateway 40 GbE deployment.
	VASTOnRuby = cluster.VASTOnRuby
	// VASTOnQuartz is the 32-gateway 2×1 Gb deployment.
	VASTOnQuartz = cluster.VASTOnQuartz
	// VASTOnWombat is the NFS/RDMA nconnect=16 multipath deployment.
	VASTOnWombat = cluster.VASTOnWombat
	// WombatVASTConfig exposes the Wombat config for custom builds.
	WombatVASTConfig = cluster.WombatVASTConfig
	// GPFSOnLassen is Lassen's 16-NSD GPFS.
	GPFSOnLassen = cluster.GPFSOnLassen
	// LustreOn is the LC Lustre as mounted on Ruby or Quartz.
	LustreOn = cluster.LustreOn
	// NVMeOnWombat is the node-local 3×970 PRO baseline.
	NVMeOnWombat = cluster.NVMeOnWombat
	// UnifyFSOnWombat is a UnifyFS burst buffer over Wombat's node-local
	// NVMe (the paper's other configurable-storage example).
	UnifyFSOnWombat = cluster.UnifyFSOnWombat
	// UnifyFSWombatConfig exposes the UnifyFS config for policy sweeps.
	UnifyFSWombatConfig = cluster.UnifyFSWombatConfig
)

// Mounter is anything that can attach a compute node (all four systems).
type Mounter interface {
	Mount(node string, nic *netsim.Iface) fsapi.Client
}

// MountAll mounts every node of the cluster on the system and returns the
// per-node clients in node order.
func MountAll(sys Mounter, cl *Cluster) []Client {
	mounts := make([]Client, 0, cl.Size())
	for _, n := range cl.Nodes() {
		mounts = append(mounts, sys.Mount(n.Name, n.NIC))
	}
	return mounts
}

// RunIOR executes the IOR benchmark on the mounts.
func RunIOR(env *Env, mounts []Client, cfg IORConfig) (IORResult, error) {
	return ior.Run(env, mounts, cfg)
}

// RunDLIO executes the DLIO benchmark, recording spans into rec (pass
// NewTraceRecorder()).
func RunDLIO(env *Env, mounts []Client, cfg DLIOConfig, rec *TraceRecorder) (DLIOResult, error) {
	return dlio.Run(env, mounts, cfg, rec)
}

// NewTraceRecorder returns an empty trace recorder.
func NewTraceRecorder() *TraceRecorder { return trace.NewRecorder() }

// NewVAST instantiates a custom VAST deployment (ablations, what-if
// studies). Start from WombatVASTConfig and mutate.
func NewVAST(env *Env, fab *Fabric, cfg VASTConfig) (*VASTSystem, error) {
	return vast.New(env, fab, cfg)
}

// AnalyzeTrace computes the overlap decomposition of recorded spans.
func AnalyzeTrace(rec *TraceRecorder) TraceAnalysis { return trace.Analyze(rec.Spans()) }

// ResNet50Config returns the paper's ResNet-50 DLIO preset (Section VI-B).
func ResNet50Config() DLIOConfig { return dlio.ResNet50() }

// CosmoflowConfig returns the paper's Cosmoflow DLIO preset (Section VI-C).
func CosmoflowConfig() DLIOConfig { return dlio.Cosmoflow() }

// ApplicationWorkload is one Section III-B application preset.
type ApplicationWorkload = workloads.Workload

// Workload engine kinds.
const (
	IORWorkload  = workloads.IORKind
	DLIOWorkload = workloads.DLIOKind
)

// WorkloadCatalogue returns every application preset (CM1, HACC-I/O,
// BD-CATS, KMeans, out-of-core sort, ResNet-50, Cosmoflow, Cosmic Tagger).
func WorkloadCatalogue(procsPerNode int) map[string]ApplicationWorkload {
	return workloads.Catalogue(procsPerNode)
}

// MDTestConfig parameterizes the metadata benchmark.
type MDTestConfig = mdtest.Config

// MDTestResult is its outcome.
type MDTestResult = mdtest.Result

// RunMDTest executes the MDTest-style metadata benchmark on the mounts.
func RunMDTest(env *Env, mounts []Client, cfg MDTestConfig) (MDTestResult, error) {
	return mdtest.Run(env, mounts, cfg)
}

// ReplayConfig parameterizes a trace replay.
type ReplayConfig = replay.Config

// ReplayResult is the outcome of a trace replay.
type ReplayResult = replay.Result

// ReplayTrace projects recorded spans onto a different deployment,
// preserving the trace's compute durations and read dependencies.
func ReplayTrace(env *Env, mounts []Client, spans []TraceSpan, cfg ReplayConfig, rec *TraceRecorder) (ReplayResult, error) {
	return replay.Run(env, mounts, spans, cfg, rec)
}

// TraceSpan is one recorded interval.
type TraceSpan = trace.Span

// Paper-figure reproductions (see DESIGN.md's experiment index).
var (
	// Fig2a: Lassen IOR scalability, VAST vs GPFS.
	Fig2a = experiments.Fig2a
	// Fig2b: Wombat IOR scalability, VAST vs NVMe.
	Fig2b = experiments.Fig2b
	// Fig3: single-node fsync tests on all four machines.
	Fig3 = experiments.Fig3
	// Fig4: DLIO I/O-time analysis ("resnet50" or "cosmoflow").
	Fig4 = experiments.Fig4
	// Fig56: DLIO application/system throughput panels.
	Fig56 = experiments.Fig56
	// TakeawayRDMAvsTCP: the Section VII administrator takeaway.
	TakeawayRDMAvsTCP = experiments.TakeawayRDMAvsTCP
	// TakeawaySeqVsRandom: the Section VII I/O-researcher takeaway.
	TakeawaySeqVsRandom = experiments.TakeawaySeqVsRandom
	// AblationFabric, AblationNconnect, AblationCNodes, AblationTCPGateway:
	// the design-hypothesis sweeps (the paper's future work).
	AblationFabric     = experiments.AblationFabric
	AblationNconnect   = experiments.AblationNconnect
	AblationCNodes     = experiments.AblationCNodes
	AblationTCPGateway = experiments.AblationTCPGateway
	// AblationSharedFile quantifies the N-1 vs N-N methodology choice of
	// Section IV-C.1.
	AblationSharedFile = experiments.AblationSharedFile
	// Consistency reproduces the 10-repetition shared-environment
	// methodology of Section IV-C.
	Consistency = experiments.Consistency
	// WorkloadSuitability runs every Section III-B application preset on
	// VAST and GPFS and reports the suitability matrix.
	WorkloadSuitability = experiments.WorkloadSuitability
	// FailoverStudy exercises VAST's stateless-CNode failover (Section
	// III-A.2) in degraded mode.
	FailoverStudy = experiments.FailoverStudy
	// DegradedSweep sweeps the fraction of failed servers per deployment
	// under the schedule-driven fault-injection engine.
	DegradedSweep = experiments.DegradedSweep
	// RebuildSweep traces foreground IOR bandwidth over time while a failed
	// DBox rebuilds under throttled vs. aggressive rebuild QoS.
	RebuildSweep = experiments.RebuildSweep
	// RunIORWithRepair runs IOR with the backend wrapped in a self-healing
	// repair.Manager: scheduled failures spawn contending rebuild flows or
	// data-loss reports instead of the raw engine's free snap-back.
	RunIORWithRepair = experiments.RunIORWithRepair
	// RunChaosStorm runs one seeded randomized fault storm with the full
	// invariant suite attached and reports a deterministic digest.
	RunChaosStorm = experiments.RunChaosStorm
	// RepairThrottled and RepairAggressive are the canonical rebuild QoS
	// presets.
	RepairThrottled  = repair.Throttled
	RepairAggressive = repair.Aggressive
	// SaturationSweep drives the canonical four-tenant, one-million-client
	// mix open-loop at increasing offered load over the VAST and Lustre
	// deployments: delivered goodput flattens while p99 turns the
	// hockey-stick corner.
	SaturationSweep = experiments.SaturationSweep
	// RetryStormStudy contrasts unbounded client retries against the
	// budgeted resilience stack (deadlines, retry budgets, jittered
	// backoff, circuit breakers) through a transient link brownout — the
	// metastable-failure demonstration.
	RetryStormStudy = experiments.RetryStormStudy
	// RunTraffic runs an open-loop traffic spec on a machine/fs testbed.
	RunTraffic = experiments.RunTraffic
	// AblationUnifyFS sweeps UnifyFS's placement and I/O-server policies
	// (the Section I configurability example).
	AblationUnifyFS = experiments.AblationUnifyFS
	// TableIExperiment: Table I as a typed result table.
	TableIExperiment = experiments.TableI
	// Fig1: the architecture diagrams of Figure 1, generated from the live
	// deployment parameters.
	Fig1 = experiments.Fig1
	// FigWhatIf renders the what-if explorer's predicted-vs-measured
	// frontier panels (paperfigs -fig whatif).
	FigWhatIf = experiments.FigWhatIf
)
