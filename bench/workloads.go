package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"time"

	"storagesim/internal/cluster"
	"storagesim/internal/experiments"
	"storagesim/internal/fidelity"
	"storagesim/internal/fsapi"
	"storagesim/internal/sim"
	"storagesim/internal/trace"
	"storagesim/internal/traffic"
	"storagesim/internal/vast"
)

// The four workloads. Each stresses a different layer and bypasses others,
// so an optimisation of one layer has a workload that exercises it and one
// on which the prediction is no change (see README.md for the map).
//
// Rep sizes are simulated windows at scale 1, chosen so one timed rep takes
// 1 to 2.5 s on a shared 2-vCPU Xeon host, and a 10 s run holds several;
// scale 0.1 is the untimed warm-up and scale 0.01 the smoke run.
// paper-quick is fixed by its figure set (about 20 s on that host).
const (
	openNodes  = 4
	openLoad   = 32
	openWindow = 55 * time.Second

	shardRacks        = 2
	shardNodesPerRack = 2
	shardLoad         = 32
	shardRemote       = 0.25
	shardWindow       = 20 * time.Second
	// interRackLatency matches the experiments' inter-rack links; it is
	// also the group's lookahead.
	interRackLatency = 5 * time.Microsecond

	replayNodes  = 2
	replayLoad   = 16
	replayWindow = 32 * time.Second
)

// resilientSpec is traffic-sharded-resilient's tenant spec.
//
//go:embed specs/resilient.json
var resilientSpec []byte

// workload is one benchmark workload.
type workload struct {
	name string
	why  string
	// input generates the untimed input of a rep at the given scale (the
	// recorded trace of trace-replay); nil when the workload has none.
	input func(seed uint64, scale float64) (*recording, error)
	// setUp parses specs and builds testbeds and groups, and returns the
	// rep's operations.
	setUp func(p *params) (*rep, error)
}

// rep is one set-up rep: its operations, each timed on its own, and the
// untimed check that turns their outputs into the rep's result once all of
// them succeeded. An operation is one simulation call: a traffic run, a
// replay plus audit, or one figure.
type rep struct {
	ops   []func() error
	check func(res *repResult)
}

var workloads = []*workload{
	{
		name:  "traffic-open",
		why:   "traffic.Run, Wombat/VAST 4 nodes, 4 saturation tenants at load 32, 55 s window per rep: fabric solver and process hand-offs; bypasses cache, trace, group and resilience",
		setUp: setUpOpen,
	},
	{
		name:  "traffic-sharded-resilient",
		why:   "traffic.RunSharded, 2 racks x 2 nodes on 2 executors, remote 0.25, full resilience stack, load 32, 20 s window per rep: the only workload where sim.Group and resilience work",
		setUp: setUpSharded,
	},
	{
		name:  "trace-replay",
		why:   "parse, normalize, replay and audit a recorded 4-tenant JSONL trace (2 nodes, load 16, 32 s recorded per rep): the ingest layer and replay pipeline; parse- and alloc-heavy",
		input: recordTrace,
		setUp: setUpReplay,
	},
	{
		name:  "paper-quick",
		why:   "every quick paper figure in-process (paperfigs -fig all -quick): op-level DLIO and the client cache dominate; traffic only inside three figures",
		setUp: setUpPaper,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// params is what a rep's set-up needs.
type params struct {
	seed  uint64
	scale float64
	// domains is the executor count of the sharded group.
	domains int
	// input is the workload's generated input, nil when it has none.
	input *recording
	// tr and probe are nil in untraced reps.
	tr    *tracer
	probe *probe
}

// repResult is the outcome of one timed phase.
type repResult struct {
	ops    int64 // operations attempted: a traffic run, a replay + audit, or one figure
	failed int64 // operations that errored, panicked or failed a check
	errs   []string
	work   float64 // resolved requests, replayed events, or figures
	digest string  // model digest, identical across reps of one input
	counts map[string]float64
}

func (r *repResult) fail(format string, args ...any) {
	r.failed++
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

// failedOp is the result of one operation that failed.
func failedOp(format string, args ...any) repResult {
	r := repResult{ops: 1}
	r.fail(format, args...)
	return r
}

// scaled returns d×scale, at least one millisecond.
func scaled(d time.Duration, scale float64) sim.Duration {
	s := sim.Duration(float64(d) * scale)
	if s < sim.Millisecond {
		s = sim.Millisecond
	}
	return s
}

func sha(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:12])
}

// testbed is one Wombat/VAST deployment built from the layers' public
// constructors, the way the experiments build theirs.
type testbed struct {
	fab   *sim.Fabric
	mount func(tenant string, node int) fsapi.Client
}

func buildWombatVAST(env *sim.Env, fab *sim.Fabric, nodes int, p *params) (*testbed, error) {
	p.probe.watch(fab)
	var cl *cluster.Cluster
	var err error
	p.tr.call("cluster.new", "", func() { cl, err = cluster.New(env, fab, cluster.WombatSpec(), nodes) })
	if err != nil {
		return nil, err
	}
	var sys *vast.System
	p.tr.call("vast.new", "", func() { sys, err = vast.New(env, fab, cluster.WombatVASTConfig(cl)) })
	if err != nil {
		return nil, err
	}
	mount := func(tenant string, node int) fsapi.Client {
		n := cl.Node(node)
		return p.probe.wrap(sys.Mount(n.Name+"/"+tenant, n.NIC))
	}
	return &testbed{fab: fab, mount: mount}, nil
}

// trafficResult checks request conservation and collects the modelled
// counts of one traffic report into res.
func trafficResult(res *repResult, tenants []traffic.TenantReport, digest string, p *params) {
	res.digest = sha(digest)
	var offered, completed, shed, miss, retries, hedges, wins, inflight, payload float64
	for _, t := range tenants {
		if t.Offered != t.Completed+t.Shed+uint64(t.InFlightEnd) {
			res.fail("tenant %s: offered %d != completed %d + shed %d + in-flight %d",
				t.Name, t.Offered, t.Completed, t.Shed, t.InFlightEnd)
		}
		offered += float64(t.Offered)
		completed += float64(t.Completed)
		shed += float64(t.Shed)
		miss += float64(t.DeadlineMiss)
		retries += float64(t.Retries)
		hedges += float64(t.Hedges)
		wins += float64(t.HedgeWins)
		inflight += float64(t.InFlightEnd)
		payload += t.PayloadBytes
	}
	res.work = offered - inflight
	if p.probe != nil {
		res.counts = p.probe.counts(payload)
		res.counts["traffic.offered"] = offered
		res.counts["traffic.completed"] = completed
		res.counts["traffic.shed"] = shed
		res.counts["traffic.deadline_miss"] = miss
		res.counts["resilience.retries"] = retries
		res.counts["resilience.hedges"] = hedges
		if hedges > 0 {
			res.counts["resilience.hedge_win_ratio"] = wins / hedges
		}
	}
}

// runDigest renders a single-fabric report in the style of
// ShardedReport.Digest: every count and every float bit pattern.
func runDigest(rep traffic.Report) string {
	return traffic.ShardedReport{
		Duration: rep.Duration,
		Racks:    []traffic.RackReport{{Name: "run", Tenants: rep.Tenants}},
	}.Digest()
}

func openConfig(p *params) traffic.Config {
	return traffic.Config{
		Spec:      experiments.SaturationTenants(),
		Duration:  scaled(openWindow, p.scale),
		Seed:      p.seed,
		LoadScale: openLoad,
	}
}

func setUpOpen(p *params) (*rep, error) {
	cfg := openConfig(p)
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	env := sim.NewEnv()
	tb, err := buildWombatVAST(env, sim.NewFabric(env), openNodes, p)
	if err != nil {
		return nil, err
	}
	var report traffic.Report
	return &rep{
		ops: []func() error{func() error {
			p.tr.call("traffic.run", "", func() { report = traffic.Run(env, tb.fab, openNodes, tb.mount, cfg) })
			return nil
		}},
		check: func(res *repResult) { trafficResult(res, report.Tenants, runDigest(report), p) },
	}, nil
}

func setUpSharded(p *params) (*rep, error) {
	spec, err := traffic.ParseSpec(resilientSpec)
	if err != nil {
		return nil, err
	}
	g := sim.NewGroup(p.domains)
	racks := make([]traffic.Rack, shardRacks)
	for r := range racks {
		env := sim.NewEnv()
		fab := sim.NewFabric(env)
		shard := g.AddShard(fmt.Sprintf("rack%d/vast", r), env)
		tb, err := buildWombatVAST(env, fab, shardNodesPerRack, p)
		if err != nil {
			g.Shutdown()
			return nil, err
		}
		racks[r] = traffic.Rack{Shard: shard, Fab: fab, Nodes: shardNodesPerRack, Mount: tb.mount}
	}
	g.LinkAll(interRackLatency)
	cfg := traffic.ShardedConfig{
		Config: traffic.Config{
			Spec:      spec,
			Duration:  scaled(shardWindow, p.scale),
			Seed:      p.seed,
			LoadScale: shardLoad,
		},
		RemoteFraction: shardRemote,
	}
	var report traffic.ShardedReport
	return &rep{
		ops: []func() error{func() error {
			defer g.Shutdown()
			p.tr.call("traffic.run_sharded", "", func() { report = traffic.RunSharded(g, racks, cfg) })
			return nil
		}},
		check: func(res *repResult) { trafficResult(res, report.Tenants, report.Digest(), p) },
	}, nil
}

// recording is trace-replay's input: a drained four-tenant run recorded as
// JSONL, kept in memory.
type recording struct {
	jsonl  []byte
	events int
}

// recordTrace generates trace-replay's input. Recording is input
// generation: it is timed neither as set-up nor as the timed phase.
func recordTrace(seed uint64, scale float64) (*recording, error) {
	_, events, err := experiments.RecordTraffic("Wombat", experiments.VAST, replayNodes, traffic.Config{
		Spec:      experiments.SaturationTenants(),
		Duration:  scaled(replayWindow, scale),
		Seed:      seed,
		LoadScale: replayLoad,
	})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, events); err != nil {
		return nil, err
	}
	return &recording{jsonl: buf.Bytes(), events: len(events)}, nil
}

func setUpReplay(p *params) (*rep, error) {
	// Set-up-only processes have no input: recording it is not set-up.
	in := p.input
	env := sim.NewEnv()
	tb, err := buildWombatVAST(env, sim.NewFabric(env), replayNodes, p)
	if err != nil {
		return nil, err
	}
	var events []trace.Event
	var report traffic.Report
	var audit *fidelity.Report
	replay := func() error {
		if in == nil {
			return errors.New("no recorded input")
		}
		var err error
		p.tr.call("trace.parse", "", func() { events, err = trace.ParseEvents(in.jsonl, trace.JSONL, "") })
		if err != nil {
			return fmt.Errorf("parse: %w", err)
		}
		var tr *trace.Trace
		p.tr.call("trace.normalize", "", func() { tr, err = trace.Normalize(events) })
		if err != nil {
			return fmt.Errorf("normalize: %w", err)
		}
		p.tr.call("traffic.replay", "", func() {
			report = traffic.ReplayTrace(env, tb.fab, replayNodes, tb.mount, traffic.TraceConfig{Trace: tr})
		})
		p.tr.call("fidelity.audit", "", func() { audit, err = fidelity.Audit(tr, report, fidelity.Tolerance{}, 0) })
		if err != nil {
			return fmt.Errorf("audit: %w", err)
		}
		return nil
	}
	check := func(res *repResult) {
		trafficResult(res, report.Tenants, runDigest(report)+audit.String(), p)
		res.work = float64(len(events))
		if len(events) != in.events {
			res.fail("parsed %d events, recorded %d", len(events), in.events)
		}
		var completed uint64
		for _, t := range report.Tenants {
			completed += t.Completed
		}
		if completed != uint64(in.events) {
			res.fail("replay completed %d requests, trace records %d", completed, in.events)
		}
		if !audit.Passed() {
			res.fail("fidelity audit: %d of %d metrics out of band", audit.Failed, len(audit.Metrics))
		}
		if res.counts != nil {
			res.counts["trace.events"] = float64(len(events))
			res.counts["trace.input_mib"] = float64(len(in.jsonl)) / (1 << 20)
			res.counts["fidelity.in_band"] = float64(len(audit.Metrics) - audit.Failed)
		}
	}
	return &rep{ops: []func() error{replay}, check: check}, nil
}

// paperFigure is one figure of paperfigs, rendered as tables without plots.
type paperFigure struct {
	name  string
	group string // span group: ior_figs, dlio_figs, traffic_figs, whatif_fig
	cheap bool   // part of the warm-up and smoke subset
	run   func(o experiments.Options, b *strings.Builder) error
}

func renderPanels(b *strings.Builder, panels []experiments.Panel, err error) error {
	if err != nil {
		return err
	}
	for _, p := range panels {
		b.WriteString(p.Render())
	}
	return nil
}

func panelFn(fn func(experiments.Options) (experiments.Panel, error)) func(experiments.Options, *strings.Builder) error {
	return func(o experiments.Options, b *strings.Builder) error {
		p, err := fn(o)
		return renderPanels(b, []experiments.Panel{p}, err)
	}
}

func panelsFn(fn func(experiments.Options) ([]experiments.Panel, error)) func(experiments.Options, *strings.Builder) error {
	return func(o experiments.Options, b *strings.Builder) error {
		ps, err := fn(o)
		return renderPanels(b, ps, err)
	}
}

func tablesFn(fns ...func(experiments.Options) (experiments.Table, error)) func(experiments.Options, *strings.Builder) error {
	return func(o experiments.Options, b *strings.Builder) error {
		for _, fn := range fns {
			t, err := fn(o)
			if err != nil {
				return err
			}
			b.WriteString(t.Render())
		}
		return nil
	}
}

// paperFigures is paperfigs' figure list, in its order.
var paperFigures = []paperFigure{
	{"table1", "ior_figs", true, func(_ experiments.Options, b *strings.Builder) error {
		b.WriteString(experiments.TableI().Render())
		return nil
	}},
	{"1", "ior_figs", true, func(_ experiments.Options, b *strings.Builder) error {
		d, err := experiments.Fig1()
		b.WriteString(d)
		return err
	}},
	{"2a", "ior_figs", false, panelsFn(experiments.Fig2a)},
	{"2b", "ior_figs", true, panelsFn(experiments.Fig2b)},
	{"3", "ior_figs", false, panelsFn(experiments.Fig3)},
	{"4a", "dlio_figs", false, panelFn(func(o experiments.Options) (experiments.Panel, error) { return experiments.Fig4("resnet50", o) })},
	{"4b", "dlio_figs", false, panelFn(func(o experiments.Options) (experiments.Panel, error) { return experiments.Fig4("cosmoflow", o) })},
	{"5", "dlio_figs", false, panelsFn(func(o experiments.Options) ([]experiments.Panel, error) {
		app, sys, err := experiments.Fig56("resnet50", o)
		return []experiments.Panel{app, sys}, err
	})},
	{"6", "dlio_figs", false, panelsFn(func(o experiments.Options) ([]experiments.Panel, error) {
		app, sys, err := experiments.Fig56("cosmoflow", o)
		return []experiments.Panel{app, sys}, err
	})},
	{"takeaways", "ior_figs", true, tablesFn(experiments.TakeawayRDMAvsTCP, experiments.TakeawaySeqVsRandom)},
	{"ablations", "ior_figs", false, func(o experiments.Options, b *strings.Builder) error {
		for _, fn := range []func(experiments.Options) (experiments.Panel, error){
			experiments.AblationFabric, experiments.AblationNconnect,
			experiments.AblationCNodes, experiments.AblationTCPGateway,
		} {
			if err := panelFn(fn)(o, b); err != nil {
				return err
			}
		}
		return tablesFn(experiments.AblationSharedFile, experiments.AblationUnifyFS)(o, b)
	}},
	{"consistency", "ior_figs", false, tablesFn(experiments.Consistency)},
	{"suitability", "ior_figs", false, tablesFn(experiments.WorkloadSuitability)},
	{"failover", "ior_figs", true, tablesFn(experiments.FailoverStudy)},
	{"degraded", "ior_figs", true, panelFn(experiments.DegradedSweep)},
	{"rebuild", "ior_figs", true, panelFn(experiments.RebuildSweep)},
	{"saturation", "traffic_figs", false, panelsFn(experiments.SaturationSweep)},
	{"retrystorm", "traffic_figs", false, func(o experiments.Options, b *strings.Builder) error {
		res, err := experiments.RetryStormStudy(o)
		return renderPanels(b, res.Panels, err)
	}},
	{"whatif", "whatif_fig", false, panelsFn(experiments.FigWhatIf)},
}

func setUpPaper(p *params) (*rep, error) {
	opts := experiments.Options{Quick: true, Reps: 1, Seed: p.seed}
	var out strings.Builder
	r := &rep{}
	for _, f := range paperFigures {
		if p.scale < 1 && !f.cheap {
			continue
		}
		r.ops = append(r.ops, func() error {
			var err error
			p.tr.call("experiments."+f.group, f.name, func() { err = f.run(opts, &out) })
			if err != nil {
				return fmt.Errorf("figure %s: %w", f.name, err)
			}
			return nil
		})
	}
	r.check = func(res *repResult) {
		res.work = float64(len(r.ops))
		res.digest = sha(out.String())
	}
	return r, nil
}

// protect runs fn, turning a panic into an error.
func protect(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return fn()
}
