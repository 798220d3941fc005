package experiments

import (
	"fmt"
	"math"
	"time"

	"storagesim/internal/cluster"
	"storagesim/internal/configsearch"
	"storagesim/internal/device"
	"storagesim/internal/faults"
	"storagesim/internal/fsapi"
	"storagesim/internal/gpfs"
	"storagesim/internal/lustre"
	"storagesim/internal/netsim"
	"storagesim/internal/nvmelocal"
	"storagesim/internal/repair"
	"storagesim/internal/sim"
	"storagesim/internal/stats"
	"storagesim/internal/surrogate"
	"storagesim/internal/traffic"
	"storagesim/internal/unifyfs"
	"storagesim/internal/vast"
)

// The what-if configuration explorer: enumerate a typed deployment knob
// space (internal/configsearch), score every candidate with the analytical
// surrogate (internal/surrogate) in microseconds, and DES-verify only the
// predicted Pareto frontier plus a margin band — the rest of the space is
// never simulated. The surrogate's deployment parameters are harvested
// from the same cluster.*Config builders the testbeds instantiate, so the
// two models cannot drift apart silently.

// WhatIfConfig parameterizes one explorer run.
type WhatIfConfig struct {
	// Space is the knob space to explore.
	Space configsearch.Space
	// Spec is the tenant mix every candidate serves (WhatIfTenants()
	// when zero).
	Spec traffic.Spec
	// Window is the DES verification window (default 250ms).
	Window time.Duration
	// Seed drives the DES arrival streams.
	Seed uint64
	// Budget caps DES verifications (0: verify the whole margin band).
	Budget int
	// Objectives are the frontier axes (default goodput, p99, cost).
	Objectives []configsearch.Objective
	// Margin is the pruning band (default 0.35).
	Margin float64
	// Calibrate fits the surrogate's coefficients to a handful of DES
	// probes before searching.
	Calibrate bool
	// Probes is the calibration probe count (default 8).
	Probes int
}

func (wc WhatIfConfig) withDefaults() WhatIfConfig {
	if len(wc.Spec.Tenants) == 0 {
		wc.Spec = WhatIfTenants()
	}
	if wc.Window <= 0 {
		wc.Window = 250 * time.Millisecond
	}
	if wc.Seed == 0 {
		wc.Seed = 0x5eed
	}
	if wc.Margin == 0 {
		wc.Margin = 0.35
	}
	if len(wc.Objectives) == 0 {
		wc.Objectives = configsearch.DefaultObjectives()
	}
	if wc.Probes <= 0 {
		wc.Probes = 8
	}
	return wc
}

// WhatIfTenants is the pinned three-tenant mix of the what-if studies: a
// checkpoint writer, a scan reader and a metadata tenant, sized so a
// 250ms window resolves saturation on small configurations while a full
// DES evaluation stays in the low milliseconds.
func WhatIfTenants() traffic.Spec {
	return traffic.Spec{Tenants: []traffic.Tenant{
		{
			Name: "ckpt", Clients: 3000, Workload: traffic.SeqWrite,
			Arrival:      traffic.Arrival{Kind: traffic.DeterministicRate, Rate: 1.0},
			RequestBytes: 1 << 20, IOBytes: 1 << 20,
			MaxInflight: 64, SLOP99: 250 * time.Millisecond,
		},
		{
			Name: "scan", Clients: 6000, Workload: traffic.SeqRead,
			Arrival:      traffic.Arrival{Kind: traffic.DeterministicRate, Rate: 1.0},
			RequestBytes: 1 << 20, IOBytes: 1 << 20,
			MaxInflight: 64, SLOP99: 250 * time.Millisecond,
		},
		{
			Name: "meta", Clients: 2000, Workload: traffic.Metadata,
			Arrival:     traffic.Arrival{Kind: traffic.DeterministicRate, Rate: 1.0},
			MaxInflight: 128, SLOP99: 50 * time.Millisecond,
		},
	}}
}

// WhatIfResult is one completed explorer run.
type WhatIfResult struct {
	// Search is the full search outcome (all candidates, predictions,
	// survivors, measured frontier).
	Search *configsearch.Result
	// Coeffs are the surrogate coefficients the search scored with.
	Coeffs surrogate.Coeffs
	// Probes counts calibration probes run (0 when uncalibrated).
	Probes int
	// Window echoes the DES verification window.
	Window time.Duration
}

// ConfigSearch runs the what-if explorer end to end: enumerate,
// surrogate-score, prune to the predicted frontier plus the margin band,
// DES-verify the survivors on the parallel rep machinery, and extract the
// measured Pareto frontier. Fully deterministic for a fixed config.
func ConfigSearch(wc WhatIfConfig) (*WhatIfResult, error) {
	wc = wc.withDefaults()
	if err := wc.Spec.Validate(); err != nil {
		return nil, err
	}
	e, err := newWhatIfExplorer(wc)
	if err != nil {
		return nil, err
	}
	probes := 0
	if wc.Calibrate {
		cands, err := wc.Space.Enumerate()
		if err != nil {
			return nil, err
		}
		idxs := probeIndices(len(cands), wc.Probes)
		batch := make([]configsearch.Candidate, len(idxs))
		for k, i := range idxs {
			batch[k] = cands[i]
		}
		measured, err := e.measureBatch(batch)
		if err != nil {
			return nil, fmt.Errorf("whatif: calibration probes: %w", err)
		}
		ps := make([]surrogate.Probe, len(batch))
		for k, c := range batch {
			dep, streams, err := e.analytical(c)
			if err != nil {
				return nil, err
			}
			ps[k] = surrogate.Probe{
				Dep: dep, Streams: streams,
				GoodputBps: measured[k].GoodputBps, P99Sec: measured[k].P99Sec,
			}
		}
		e.model = surrogate.Model{Coeffs: surrogate.Fit(e.model.Coeffs, ps)}
		probes = len(ps)
	}
	res, err := configsearch.Search(&wc.Space, configsearch.Options{
		Objectives: wc.Objectives,
		Margin:     wc.Margin,
		Budget:     wc.Budget,
	}, e.predict, e.measureBatch)
	if err != nil {
		return nil, err
	}
	return &WhatIfResult{Search: res, Coeffs: e.model.Coeffs, Probes: probes, Window: wc.Window}, nil
}

// probeIndices spreads n probes evenly over the enumeration order.
func probeIndices(total, n int) []int {
	if n > total {
		n = total
	}
	out := make([]int, 0, n)
	seen := map[int]bool{}
	for k := 0; k < n; k++ {
		i := k * (total - 1) / max(n-1, 1)
		if !seen[i] {
			seen[i] = true
			out = append(out, i)
		}
	}
	return out
}

// FrontierTable renders the measured Pareto frontier with the surrogate's
// predictions alongside — the explorer's answer.
func (r *WhatIfResult) FrontierTable() Table {
	t := Table{
		ID:    "whatif-frontier",
		Title: "What-if Pareto frontier (DES-verified; surrogate predictions alongside)",
		Header: []string{"config", "cost $/hr", "pred GB/s", "meas GB/s",
			"pred p99 ms", "meas p99 ms", "shed %"},
	}
	for _, i := range r.Search.Frontier {
		s := r.Search.Candidates[i]
		m := s.Measured
		t.Rows = append(t.Rows, []string{
			s.Candidate.String(),
			fmt.Sprintf("%.2f", m.CostHr),
			fmt.Sprintf("%.2f", s.Predicted.GoodputBps/1e9),
			fmt.Sprintf("%.2f", m.GoodputBps/1e9),
			fmt.Sprintf("%.2f", s.Predicted.P99Sec*1e3),
			fmt.Sprintf("%.2f", m.P99Sec*1e3),
			fmt.Sprintf("%.1f", m.ShedFrac*100),
		})
	}
	verified := len(r.Search.Survivors)
	total := len(r.Search.Candidates)
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d candidates enumerated; %d surrogate-pruned, %d DES-verified (%.1f%% of the space), %d truncated by budget",
			total, total-verified, verified, 100*float64(verified)/float64(total), r.Search.Truncated),
		fmt.Sprintf("margin %.2f; window %v; coeffs eta(client %.2f server %.2f fabric %.2f device %.2f) tail(queue %.2f sat %.2f); %d calibration probes",
			r.Search.Margin, r.Window,
			r.Coeffs.EtaClient, r.Coeffs.EtaServer, r.Coeffs.EtaFabric, r.Coeffs.EtaDevice,
			r.Coeffs.TailQueue, r.Coeffs.TailSat, r.Probes),
	)
	return t
}

// --- the explorer ---

type whatIfExplorer struct {
	cfg     WhatIfConfig
	window  sim.Duration
	machine cluster.MachineSpec
	model   surrogate.Model

	// Deployment parameter snapshots, harvested once from the cluster
	// builders on a throwaway env (only the backends the space names).
	vcfg *vast.Config
	ncfg *nvmelocal.Config
	lcfg *lustre.Config
	gcfg *gpfs.Config
	ucfg *unifyfs.Config
}

func newWhatIfExplorer(wc WhatIfConfig) (*whatIfExplorer, error) {
	spec, err := cluster.MachineByName(wc.Space.Machine)
	if err != nil {
		return nil, err
	}
	env := sim.NewEnv()
	cl, err := cluster.New(env, sim.NewFabric(env), spec, 1)
	if err != nil {
		return nil, err
	}
	e := &whatIfExplorer{
		cfg:     wc,
		window:  sim.Duration(wc.Window),
		machine: spec,
		model:   surrogate.NewModel(),
	}
	for _, b := range wc.Space.Backends {
		switch b {
		case "vast":
			var v vast.Config
			switch wc.Space.Machine {
			case "Wombat":
				v = cluster.WombatVASTConfig(cl)
			case "Ruby":
				v = cluster.RubyVASTConfig(cl)
			default:
				return nil, fmt.Errorf("whatif: no vast surrogate for machine %s (Wombat and Ruby modeled)", wc.Space.Machine)
			}
			e.vcfg = &v
		case "nvme":
			n := cluster.NVMeWombatConfig(cl)
			e.ncfg = &n
		case "lustre":
			l := cluster.LustreConfig(cl)
			e.lcfg = &l
		case "gpfs":
			g := cluster.GPFSLassenConfig(cl)
			e.gcfg = &g
		case "unifyfs":
			u := cluster.UnifyFSWombatConfig(cl)
			e.ucfg = &u
		default:
			return nil, fmt.Errorf("whatif: no surrogate for backend %s", b)
		}
	}
	return e, nil
}

// predict scores one candidate analytically.
func (e *whatIfExplorer) predict(c configsearch.Candidate) (configsearch.Metrics, error) {
	dep, streams, err := e.analytical(c)
	if err != nil {
		return configsearch.Metrics{}, err
	}
	p := e.model.Score(dep, streams)
	return configsearch.Metrics{
		GoodputBps: p.GoodputBps,
		P99Sec:     math.Min(p.P99Sec, e.window.Seconds()),
		ShedFrac:   p.ShedFrac,
	}, nil
}

// analytical maps a candidate onto the surrogate's deployment + streams.
func (e *whatIfExplorer) analytical(c configsearch.Candidate) (surrogate.Deployment, []surrogate.Stream, error) {
	var dep surrogate.Deployment
	switch c.Backend {
	case "vast":
		dep = e.vastDeployment(c)
	case "nvme":
		dep = e.nvmeDeployment(c)
	case "lustre":
		dep = e.lustreDeployment(c)
	case "gpfs":
		dep = e.gpfsDeployment(c)
	case "unifyfs":
		dep = e.unifyfsDeployment(c)
	default:
		return surrogate.Deployment{}, nil, fmt.Errorf("whatif: no surrogate for backend %s", c.Backend)
	}
	e.applyFault(c, &dep)
	return dep, e.streams(c), nil
}

func (e *whatIfExplorer) vastDeployment(c configsearch.Candidate) surrogate.Deployment {
	v := e.vcfg
	cn := orInt(c.CNodes, v.CNodes)
	db := orInt(c.DBoxes, v.DBoxes)
	scm := device.SCMSpec("scm").Scale(v.SCMPerDBox*db, "scm")
	qlc := device.QLCSpec("qlc").Scale(v.QLCPerDBox*db, "qlc")
	var pipe, interconnect float64
	var rpc sim.Duration
	switch tr := v.Transport.(type) {
	case *netsim.RDMATransport:
		pipe = tr.PerConnBW * float64(orInt(c.Nconnect, tr.Connections))
		interconnect = tr.Rails.AggregateCapacity()
		rpc = tr.RPC
	case *netsim.TCPTransport:
		pipe = tr.PerConnBW * float64(tr.Connections)
		interconnect = tr.Gateways.AggregateCapacity()
		rpc = tr.RPC
	}
	writePools := []surrogate.Pool{
		{Name: "cnode-nic", Class: surrogate.ServerClass, Bps: v.CNodeNICBW * float64(cn)},
		{Name: "reduce", Class: surrogate.ServerClass, Bps: v.ReduceBWPerCNode * float64(cn)},
		{Name: "interconnect", Class: surrogate.FabricClass, Bps: interconnect},
		{Name: "dbox-fabric", Class: surrogate.FabricClass, Bps: v.FabricBWPerDBox * float64(db)},
		{Name: "scm", Class: surrogate.DeviceClass, Bps: scm.WriteBW / float64(v.SCMReplicas)},
	}
	readPools := []surrogate.Pool{
		{Name: "cnode-nic", Class: surrogate.ServerClass, Bps: v.CNodeNICBW * float64(cn)},
		{Name: "interconnect", Class: surrogate.FabricClass, Bps: interconnect},
		{Name: "dbox-fabric", Class: surrogate.FabricClass, Bps: v.FabricBWPerDBox * float64(db)},
		{Name: "qlc", Class: surrogate.DeviceClass, Bps: qlc.ReadBW},
	}
	return surrogate.Deployment{
		Name:  c.String(),
		Nodes: c.Nodes,

		PerNodeWriteBps:   e.machine.NodeNICBW,
		PerNodeReadBps:    e.machine.NodeNICBW,
		PerStreamWriteBps: pipe,
		PerStreamReadBps:  pipe,

		WritePools: writePools,
		ReadPools:  readPools,

		WriteOverheadSec: rpc.Seconds() + 2*v.FabricLatency.Seconds() + scm.WriteLatency.Seconds(),
		ReadOverheadSec:  rpc.Seconds() + v.MetaLatency.Seconds() + 2*v.FabricLatency.Seconds() + qlc.ReadLatency.Seconds(),
		MetaSec:          rpc.Seconds() + v.MetaLatency.Seconds(),
	}
}

func (e *whatIfExplorer) nvmeDeployment(c configsearch.Candidate) surrogate.Deployment {
	n := e.ncfg
	spec := n.PerNode
	return surrogate.Deployment{
		Name:  c.String(),
		Nodes: c.Nodes,

		// Writes land in the page cache at memory speed (the dirty limit is
		// far beyond a verification window); reads also hit the page cache
		// because a short window's working set stays resident, so both
		// directions run at memory bandwidth with device latency as the
		// per-op overhead.
		PerNodeWriteBps:   n.MemBW,
		PerNodeReadBps:    n.MemBW,
		PerStreamWriteBps: n.MemBW,
		PerStreamReadBps:  n.MemBW,

		WritePools: []surrogate.Pool{
			{Name: "pagecache", Class: surrogate.DeviceClass, Bps: n.MemBW * float64(c.Nodes)},
		},
		ReadPools: []surrogate.Pool{
			{Name: "pagecache", Class: surrogate.DeviceClass, Bps: n.MemBW * float64(c.Nodes)},
		},

		WriteOverheadSec: spec.WriteLatency.Seconds(),
		ReadOverheadSec:  spec.ReadLatency.Seconds(),
		MetaSec:          spec.WriteLatency.Seconds(),
	}
}

func (e *whatIfExplorer) lustreDeployment(c configsearch.Candidate) surrogate.Deployment {
	l := e.lcfg
	ost := l.OSTPerOSS
	oss := float64(l.OSSCount)
	return surrogate.Deployment{
		Name:  c.String(),
		Nodes: c.Nodes,

		PerNodeWriteBps:   e.machine.NodeNICBW,
		PerNodeReadBps:    e.machine.NodeNICBW,
		PerStreamWriteBps: math.Min(ost.WriteBW, l.ServerNICBW),
		PerStreamReadBps:  math.Min(ost.ReadBW, l.ServerNICBW),

		WritePools: []surrogate.Pool{
			{Name: "oss-nic", Class: surrogate.ServerClass, Bps: l.ServerNICBW * oss},
			{Name: "ost", Class: surrogate.DeviceClass, Bps: ost.WriteBW * oss},
		},
		ReadPools: []surrogate.Pool{
			{Name: "oss-nic", Class: surrogate.ServerClass, Bps: l.ServerNICBW * oss},
			{Name: "ost", Class: surrogate.DeviceClass, Bps: ost.ReadBW * oss},
		},

		WriteOverheadSec: l.RPCLatency.Seconds() + ost.WriteLatency.Seconds(),
		ReadOverheadSec:  l.RPCLatency.Seconds() + ost.ReadLatency.Seconds(),
		MetaSec:          l.RPCLatency.Seconds() + l.MDSLatency.Seconds(),
	}
}

func (e *whatIfExplorer) gpfsDeployment(c configsearch.Candidate) surrogate.Deployment {
	g := e.gcfg
	raid := g.RaidPerServer
	nsd := float64(g.NSDServers)
	return surrogate.Deployment{
		Name:  c.String(),
		Nodes: c.Nodes,

		PerNodeWriteBps:   math.Min(e.machine.NodeNICBW, g.ClientWriteCap),
		PerNodeReadBps:    math.Min(e.machine.NodeNICBW, g.ClientStreamCap),
		PerStreamWriteBps: g.ClientWriteCap,
		PerStreamReadBps:  g.ClientStreamCap,

		WritePools: []surrogate.Pool{
			{Name: "nsd-nic", Class: surrogate.ServerClass, Bps: g.ServerNICBW * nsd},
			{Name: "raid", Class: surrogate.DeviceClass, Bps: raid.WriteBW * nsd},
		},
		ReadPools: []surrogate.Pool{
			{Name: "nsd-nic", Class: surrogate.ServerClass, Bps: g.ServerNICBW * nsd},
			{Name: "server-mem", Class: surrogate.ServerClass, Bps: g.ServerMemBW},
			{Name: "raid", Class: surrogate.DeviceClass, Bps: raid.ReadBW * nsd},
		},

		WriteOverheadSec: g.RPCLatency.Seconds() + raid.WriteLatency.Seconds(),
		ReadOverheadSec:  g.RPCLatency.Seconds() + raid.ReadLatency.Seconds(),
		MetaSec:          2 * g.RPCLatency.Seconds(),
	}
}

func (e *whatIfExplorer) unifyfsDeployment(c configsearch.Candidate) surrogate.Deployment {
	u := e.ucfg
	spec := u.PerNode
	return surrogate.Deployment{
		Name:  c.String(),
		Nodes: c.Nodes,

		PerNodeWriteBps:   spec.WriteBW,
		PerNodeReadBps:    spec.ReadBW,
		PerStreamWriteBps: spec.WriteBW,
		PerStreamReadBps:  spec.ReadBW,

		WritePools: []surrogate.Pool{
			{Name: "nvme", Class: surrogate.DeviceClass, Bps: spec.WriteBW * float64(c.Nodes)},
		},
		ReadPools: []surrogate.Pool{
			{Name: "nvme", Class: surrogate.DeviceClass, Bps: spec.ReadBW * float64(c.Nodes)},
		},

		WriteOverheadSec: u.ServerLatency.Seconds() + spec.WriteLatency.Seconds(),
		ReadOverheadSec:  u.ServerLatency.Seconds() + spec.ReadLatency.Seconds(),
		MetaSec:          u.ServerLatency.Seconds(),
	}
}

// applyFault folds the space's fault scenario into a deployment: the
// degraded window fraction, the rebuild's bandwidth appetite under the
// candidate's repair QoS, and the EC decode read amplification. This is a
// coarse first-order model — the DES verification carries the precision.
func (e *whatIfExplorer) applyFault(c configsearch.Candidate, dep *surrogate.Deployment) {
	f := e.cfg.Space.Fault
	if f == nil {
		return
	}
	frac := 1 - f.At.Seconds()/e.window.Seconds()
	dep.DegradedFrac = math.Min(math.Max(frac, 0), 1)
	switch f.Kind {
	case "unit-fail":
		if c.RepairQoS == configsearch.QoSThrottled {
			dep.RebuildBps = rebuildThrottleBps
		} else if e.vcfg != nil {
			dep.RebuildBps = e.vcfg.FabricBWPerDBox
		}
		dep.DegradedReadAmp = ecReadAmp(orInt(c.StripeWidth, 1))
	case "server-fail":
		if c.Backend == "vast" && e.vcfg != nil {
			cn := orInt(c.CNodes, e.vcfg.CNodes)
			scalePools(dep, surrogate.ServerClass, 1-dep.DegradedFrac/float64(cn))
		}
	case "link-derate":
		scalePools(dep, surrogate.FabricClass, 1-dep.DegradedFrac*(1-f.Factor))
	}
}

// scalePools applies a time-averaged capacity factor to one pool class.
func scalePools(dep *surrogate.Deployment, class surrogate.PoolClass, factor float64) {
	for _, pools := range [][]surrogate.Pool{dep.WritePools, dep.ReadPools} {
		for i := range pools {
			if pools[i].Class == class {
				pools[i].Bps *= factor
			}
		}
	}
}

// streams maps the tenant mix onto surrogate streams, applying the
// candidate's admission-cap knob.
func (e *whatIfExplorer) streams(c configsearch.Candidate) []surrogate.Stream {
	out := make([]surrogate.Stream, len(e.cfg.Spec.Tenants))
	for i, t := range e.cfg.Spec.Tenants {
		kind := surrogate.Read
		switch t.Workload {
		case traffic.SeqWrite:
			kind = surrogate.Write
		case traffic.Metadata:
			kind = surrogate.Meta
		}
		cap := t.MaxInflight
		if c.MaxInflight > 0 {
			cap = c.MaxInflight
		}
		out[i] = surrogate.Stream{
			Name:        t.Name,
			Kind:        kind,
			RateHz:      float64(t.Clients) * t.Arrival.Rate,
			Bytes:       float64(t.RequestBytes),
			MaxInflight: cap,
			Burst:       burstOf(t.Arrival),
		}
	}
	return out
}

// burstOf summarizes an arrival process's burstiness for the tail model.
func burstOf(a traffic.Arrival) float64 {
	switch a.Kind {
	case traffic.Poisson:
		return 1.5
	case traffic.OnOff:
		b := float64(a.Burst)
		if b < 1 {
			b = 1
		}
		return 1 + b/2
	case traffic.Diurnal:
		return 1 + a.Amplitude
	default:
		return 1
	}
}

// --- DES verification ---

// measureBatch DES-evaluates a candidate batch on the point pool (each
// candidate builds its own env, so they are independent), results in
// input order.
func (e *whatIfExplorer) measureBatch(cs []configsearch.Candidate) ([]configsearch.Metrics, error) {
	return runPoints(len(cs), func(i int) (configsearch.Metrics, error) {
		return e.measure(cs[i])
	})
}

// measure runs one candidate through the traffic engine.
func (e *whatIfExplorer) measure(c configsearch.Candidate) (configsearch.Metrics, error) {
	tb, err := e.buildCandidate(c)
	if err != nil {
		return configsearch.Metrics{}, fmt.Errorf("whatif: build %s: %w", c, err)
	}
	mount := func(tenant string, node int) fsapi.Client {
		return tb.mount(tb.cl.Node(node).Name+"/"+tenant, node)
	}
	rep := traffic.Run(tb.env, tb.fab, c.Nodes, mount, traffic.Config{
		Spec:     e.specFor(c),
		Duration: e.window,
		Seed:     e.cfg.Seed,
	})
	var m configsearch.Metrics
	merged := stats.NewSketch(0)
	for _, tr := range rep.Tenants {
		m.GoodputBps += tr.DeliveredBytes / e.window.Seconds()
		m.Offered += tr.Offered
		m.Completed += tr.Completed
		m.Shed += tr.Shed
		merged.Merge(tr.Sketch)
	}
	p99 := merged.Quantile(99)
	if math.IsNaN(p99) {
		p99 = e.window.Seconds() // nothing completed: pin to the window
	}
	m.P99Sec = math.Min(p99, e.window.Seconds())
	if m.Offered > 0 {
		m.ShedFrac = float64(m.Shed) / float64(m.Offered)
	}
	return m, nil
}

// specFor clones the tenant mix with the candidate's admission cap.
func (e *whatIfExplorer) specFor(c configsearch.Candidate) traffic.Spec {
	spec := traffic.Spec{Tenants: append([]traffic.Tenant(nil), e.cfg.Spec.Tenants...)}
	if c.MaxInflight > 0 {
		for i := range spec.Tenants {
			spec.Tenants[i].MaxInflight = c.MaxInflight
		}
	}
	return spec
}

// buildCandidate instantiates the candidate's testbed, mutating the VAST
// config for the vast-specific knobs and arming the space's fault
// scenario (through a repair manager when the backend is protected and
// the candidate names a rebuild QoS).
func (e *whatIfExplorer) buildCandidate(c configsearch.Candidate) (*testbed, error) {
	var mutate func(*vast.Config)
	if c.Backend == "vast" && e.cfg.Space.Machine == "Wombat" {
		mutate = func(v *vast.Config) { mutateVASTCandidate(v, c) }
	}
	tb, err := buildTestbed(e.cfg.Space.Machine, FS(c.Backend), c.Nodes, mutate)
	if err != nil {
		return nil, err
	}
	f := e.cfg.Space.Fault
	if f == nil {
		return tb, nil
	}
	sched := faults.Schedule{Events: []faults.Event{{
		At: f.At, Kind: faults.Kind(f.Kind), Index: f.Index, Factor: f.Factor,
	}}}
	inj := faults.NewInjector(tb.env)
	if prot, ok := tb.target.(repair.Protected); ok && c.RepairQoS != "" {
		qos := repair.QoS{MinBytes: rebuildFloorBytes}
		if c.RepairQoS == configsearch.QoSThrottled {
			qos.RateBps = rebuildThrottleBps
		}
		inj.Register(c.Backend, repair.NewManager(tb.env, tb.fab, prot, qos))
	} else {
		inj.Register(c.Backend, tb.target)
	}
	if err := inj.Apply(sched); err != nil {
		return nil, err
	}
	return tb, nil
}

// mutateVASTCandidate applies the candidate's vast knobs to the Wombat
// config before instantiation.
func mutateVASTCandidate(v *vast.Config, c configsearch.Candidate) {
	if c.CNodes > 0 {
		v.CNodes = c.CNodes
	}
	if c.DBoxes > 0 {
		// The staging tier scales with the enclosures it lives in.
		v.SCMStagingBytes = v.SCMStagingBytes / int64(v.DBoxes) * int64(c.DBoxes)
		v.DBoxes = c.DBoxes
	}
	if c.StripeWidth > 0 {
		v.StripeBytes = int64(c.StripeWidth) << 20
	}
	if c.ECParity > 0 {
		v.ECParity = c.ECParity
	}
	if c.StripeWidth > 0 || c.ECParity > 0 {
		v.DecodeReadAmp = ecReadAmp(orInt(c.StripeWidth, 1))
	}
	if c.ClientCacheMiB > 0 {
		v.ClientCacheBytes = int64(c.ClientCacheMiB) << 20
	}
	if c.Nconnect > 0 {
		setNconnect(v, c.Nconnect)
	}
}

// ecReadAmp is the QLC read amplification of a degraded read under a
// w-wide stripe: the decoder fetches w surviving strips to reconstruct
// one (never below the stock 1.5 default).
func ecReadAmp(w int) float64 {
	return math.Max(1.5, float64(w))
}

func orInt(v, def int) int {
	if v > 0 {
		return v
	}
	return def
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
