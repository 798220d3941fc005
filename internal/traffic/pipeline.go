package traffic

import (
	"fmt"
	"math"

	"storagesim/internal/fsapi"
	"storagesim/internal/resilience"
	"storagesim/internal/sim"
	"storagesim/internal/stats"
	"storagesim/internal/trace"
)

// The request pipeline shared by Run, RunSharded and ReplayTrace. Every
// request flows through one tenant×rack×node shard in six stages:
//
//   - source: the shard's arrival generator, drawn one arrival ahead, or
//     its slice of a recorded trace, admitted from a self-re-arming
//     calendar tick;
//   - admission: breaker, then brownout tiers, then the tenant's cap;
//   - placement: local, or forwarded to the rack that owns the data;
//   - policy: plain, or the tenant's resilience stack;
//   - serve: the request's I/O on a tenant mount, keyed on its op;
//   - complete: gauges, sketch, payload, latencies, observers, makespan.
//
// A request's state lives in one pooled record from its shard's free list,
// so the steady request path allocates nothing.

// tenantState is the admission and accounting state of one tenant on one
// rack, touched only from the rack's Env.
type tenantState struct {
	spec     *Tenant
	capacity int
	offered  uint64
	shed     uint64
	complete uint64
	inflight int
	payload  float64
	last     sim.Time // latest completion: the replay makespan
	sketch   *stats.Sketch
	lats     []float64
	keep     bool
	obs      func(trace.Event)
	outObs   func(OutcomeEvent)
	remote   fsapi.Client // serves the requests other racks forward here
	// remoteStart is remote's process-free form, nil when it has none.
	remoteStart fsapi.Starter

	// Resilience-layer state; zero/nil for tenants without a policy.
	breaker       *resilience.Breaker
	shedAdmission uint64
	shedBrownout  uint64
	shedBreaker   uint64
	deadlineMiss  uint64
	retries       uint64
	hedges        uint64
	hedgeWins     uint64
}

// drop counts a request that terminated without completing under its
// cause and reports it to the outcome observer.
func (st *tenantState) drop(at sim.Time, kind OutcomeKind, retries, hedges int) {
	st.shed++
	switch kind {
	case OutcomeShedAdmission:
		st.shedAdmission++
	case OutcomeShedBrownout:
		st.shedBrownout++
	case OutcomeShedBreaker:
		st.shedBreaker++
	case OutcomeDeadlineMiss:
		st.deadlineMiss++
	}
	if st.outObs != nil {
		st.outObs(OutcomeEvent{
			At: at, Tenant: st.spec.Name, Kind: kind,
			Bytes: st.spec.RequestBytes, Retries: retries, Hedges: hedges,
		})
	}
}

// rack is the admission state of one rack: the brownout gauge over every
// tenant's in-flight requests, and one tenantState per tenant. Breakers,
// caps and the brownout capacity are per rack — each rack is its own
// backend instance — so admission state never crosses a domain boundary.
type rack struct {
	env      *sim.Env
	shard    *sim.Shard // group slot; nil when a bare env drives the run
	brown    resilience.Brownout
	inflight int
	tenants  []*tenantState
}

// newRack builds a rack's admission state for cfg's tenants. The tenant
// caps and the brownout capacity are split evenly (rounded up) over the
// nracks racks carrying them.
func newRack(env *sim.Env, home *sim.Shard, cfg *Config, nracks int) *rack {
	rk := &rack{env: env, shard: home, brown: cfg.Spec.Brownout}
	rk.brown.Capacity = (rk.brown.Capacity + nracks - 1) / nracks
	for ti := range cfg.Spec.Tenants {
		t := &cfg.Spec.Tenants[ti]
		rk.tenants = append(rk.tenants, &tenantState{
			spec:     t,
			capacity: (t.MaxInflight + nracks - 1) / nracks,
			sketch:   stats.NewSketch(0),
			keep:     cfg.KeepLatencies,
			obs:      cfg.Observer,
			outObs:   cfg.OutcomeObserver,
			breaker:  resilience.NewBreaker(t.Resilience.Breaker),
		})
	}
	return rk
}

// startRacks builds every rack of a generator-driven run and mounts and
// arms its shards, rack by rack: every tenant×node generator mount first,
// then — only when requests can be forwarded — one remote-service mount
// per tenant. Mounts and arms feed the schedule, so this order is fixed:
// a one-rack run reproduces Run's byte stream. A rack without a group
// Shard runs on env.
func startRacks(cfg *Config, racks []Rack, env *sim.Env, remote float64) []*rack {
	scale := cfg.LoadScale
	if scale == 0 {
		scale = 1
	}
	end := sim.Time(0).Add(cfg.Duration)
	nodes := 0
	for _, rs := range racks {
		nodes += rs.Nodes
	}
	out := make([]*rack, len(racks))
	base := 0 // cluster-wide index of the rack's first node: seeds the streams
	for r := range racks {
		rs := &racks[r]
		if rs.Shard != nil {
			env = rs.Shard.Env()
		}
		rk := newRack(env, rs.Shard, cfg, len(racks))
		out[r] = rk
		for ti, st := range rk.tenants {
			t := st.spec
			rate := t.AggregateRate() * scale / float64(nodes)
			for node := 0; node < rs.Nodes; node++ {
				sh := newShard(rk, st, r, node, mountTagged(rs.Mount, t.Name, node, t.Name), "traffic")
				sh.tmpl = trace.Event{Tenant: t.Name, Op: workloadOp(t.Workload), Bytes: t.RequestBytes, IO: t.IOBytes}
				sh.gen = shardGen{gen: newArrivalGen(t.Arrival, rate, shardSeed(cfg.Seed, ti, base+node)), end: end}
				if remote > 0 {
					sh.racks, sh.ti, sh.remote = out, ti, remote
					sh.place = stats.NewRNG(placementSeed(cfg.Seed, ti, base+node))
					sh.remPaths = make([]string, reqFiles)
					for i := range sh.remPaths {
						sh.remPaths[i] = fmt.Sprintf("/traffic/%s/rem-r%dn%d/f%d", t.Name, r, node, i)
					}
				}
				sh.arm()
			}
		}
		if remote > 0 {
			for ti, st := range rk.tenants {
				st.remote = mountTagged(rs.Mount, st.spec.Name+"@rem", ti%rs.Nodes, st.spec.Name)
				st.remoteStart, _ = st.remote.(fsapi.Starter)
			}
		}
		base += rs.Nodes
	}
	return out
}

// mountTagged mints a mount and, when it supports fsapi.FlowTagger, tags
// it so its fabric bytes are attributed to the tenant.
func mountTagged(mount func(tenant string, node int) fsapi.Client, name string, node int, tag string) fsapi.Client {
	cl := mount(name, node)
	if tg, ok := cl.(fsapi.FlowTagger); ok {
		tg.SetFlowTag(tag)
	}
	return cl
}

// report builds the rack's per-tenant report rows in spec order.
func (rk *rack) report(fab *sim.Fabric) []TenantReport {
	out := make([]TenantReport, 0, len(rk.tenants))
	for _, st := range rk.tenants {
		out = append(out, tenantReport(st, fab))
	}
	return out
}

// tenantReport projects one tenant's books onto its report row. Every
// report is built here, so this is where request conservation is checked
// on every run: each offered request completed, was shed or is still in
// flight, and each shed has exactly one cause. Unbalanced books are an
// engine bug.
func tenantReport(st *tenantState, fab *sim.Fabric) TenantReport {
	if st.offered != st.complete+st.shed+uint64(st.inflight) ||
		st.shed != st.shedAdmission+st.shedBrownout+st.shedBreaker+st.deadlineMiss {
		panic(fmt.Sprintf("traffic: tenant %s books do not balance: offered %d, completed %d, in flight %d, shed %d "+
			"(admission %d, brownout %d, breaker %d, deadline %d)",
			st.spec.Name, st.offered, st.complete, st.inflight, st.shed,
			st.shedAdmission, st.shedBrownout, st.shedBreaker, st.deadlineMiss))
	}
	tr := TenantReport{
		Name:          st.spec.Name,
		Offered:       st.offered,
		Shed:          st.shed,
		Completed:     st.complete,
		ShedAdmission: st.shedAdmission,
		ShedBrownout:  st.shedBrownout,
		ShedBreaker:   st.shedBreaker,
		DeadlineMiss:  st.deadlineMiss,
		Retries:       st.retries,
		Hedges:        st.hedges,
		HedgeWins:     st.hedgeWins,
		Breaker:       st.breaker.Stats(),
		InFlightEnd:   st.inflight,
		PayloadBytes:  st.payload,
		SLOP99:        st.spec.SLOP99,
		Sketch:        st.sketch,
		Latencies:     st.lats,
	}
	if fab != nil {
		tr.DeliveredBytes = fab.TagBytes(st.spec.Name)
	}
	tr.summarize()
	return tr
}

// summarize fills the sketch-derived fields: the quantiles, and the SLO
// attainment (NaN without an SLO or a completion).
func (tr *TenantReport) summarize() {
	tr.P50 = sketchDur(tr.Sketch, 50)
	tr.P95 = sketchDur(tr.Sketch, 95)
	tr.P99 = sketchDur(tr.Sketch, 99)
	tr.SLOAttainment = math.NaN()
	if tr.SLOP99 > 0 && tr.Completed > 0 {
		tr.SLOAttainment = tr.Sketch.FractionBelow(tr.SLOP99.Seconds())
	}
}

// sketchDur converts a sketch quantile (seconds) to a duration, 0 when the
// sketch is empty.
func sketchDur(s *stats.Sketch, p float64) sim.Duration {
	q := s.Quantile(p)
	if math.IsNaN(q) {
		return 0
	}
	return sim.Duration(q * 1e9)
}

// shardGen feeds one shard's arrival timestamps, one ahead: peek draws the
// next from the arrivalGen once the one before it is taken. The generator
// is consulted in the next(prev) sequence the per-request generator loop
// used, including the final beyond-window draw that ends the stream,
// which stays held so that peek reports the end from then on.
type shardGen struct {
	gen  *arrivalGen
	end  sim.Time
	at   sim.Time // the arrival held, or the last one taken
	held bool
}

// peek returns the next arrival time without consuming it; ok is false once
// the stream passed the window end.
func (sg *shardGen) peek() (at sim.Time, ok bool) {
	if !sg.held {
		sg.at, sg.held = sg.gen.next(sg.at), true
	}
	return sg.at, sg.at <= sg.end
}

func (sg *shardGen) pop() { sg.held = false }

// reqFiles is the rotating file-set size per tenant×shard: requests cycle
// through this many paths, so the namespace stays bounded no matter how
// many requests a run generates.
const reqFiles = 16

// shard drives one tenant×rack×node slice of a run: its arrival source,
// the admission chain, placement, and a free list of request records.
type shard struct {
	env *sim.Env
	fn  func() // tick, bound once; re-armed for every future arrival

	// Source: the generator, whose requests all follow tmpl, or —
	// when events is set — a recorded slice replayed with op size io by
	// default.
	gen    shardGen
	tmpl   trace.Event
	events []trace.Event
	pos    int
	io     int64

	rk        *rack
	st        *tenantState
	cl        fsapi.Client
	start     fsapi.Starter // cl's process-free form on the plain path, else nil
	r         int           // rack index
	node      int
	resilient bool
	name      string
	paths     [reqFiles]string
	reqIdx    uint64
	free      []*reqRec

	// Placement, set only when requests can be forwarded: every rack of
	// the run, this shard's tenant index, the remote fraction, and the
	// shard's placement stream and remote paths.
	racks    []*rack
	ti       int
	remote   float64
	place    *stats.RNG
	remPaths []string
}

// newShard builds the shard of tenant st on node `node` of rack r, serving
// on cl under the /<ns>/<tenant>/n<node>/f<k> paths. Tenants without a
// resilience policy (in specs without brownout) run the plain path, with
// no process when cl offers fsapi.Starter.
func newShard(rk *rack, st *tenantState, r, node int, cl fsapi.Client, ns string) *shard {
	sh := &shard{
		env:       rk.env,
		rk:        rk,
		st:        st,
		cl:        cl,
		r:         r,
		node:      node,
		resilient: st.spec.Resilience.Enabled() || rk.brown.Enabled(),
		name:      fmt.Sprintf("%s/%s/r%dn%d", ns, st.spec.Name, r, node),
	}
	if !sh.resilient {
		sh.start, _ = cl.(fsapi.Starter)
	}
	for i := range sh.paths {
		sh.paths[i] = fmt.Sprintf("/%s/%s/n%d/f%d", ns, st.spec.Name, node, i)
	}
	return sh
}

// peek returns the source's next arrival time; ok is false once it is
// exhausted.
func (sh *shard) peek() (at sim.Time, ok bool) {
	if sh.events == nil {
		return sh.gen.peek()
	}
	if sh.pos < len(sh.events) {
		return sh.events[sh.pos].At, true
	}
	return 0, false
}

// arm schedules the shard's first tick (called once at setup).
func (sh *shard) arm() {
	sh.fn = sh.tick
	at, ok := sh.peek()
	if !ok {
		return
	}
	now := sh.env.Now()
	if at < now {
		at = now
	}
	sh.env.After(at.Sub(now), sh.fn)
}

// tick turns the source into a self-re-arming calendar callback: one
// pooled timer event per arrival instant, no generator process. It admits
// every pending arrival with at <= now (recorded streams carry ties;
// stochastic streams are strictly increasing), then re-arms itself for the
// next future arrival. It runs on the scheduler's stack and must not block.
func (sh *shard) tick() {
	now := sh.env.Now()
	for {
		at, ok := sh.peek()
		if !ok {
			return
		}
		if at > now {
			sh.env.After(at.Sub(now), sh.fn)
			return
		}
		sh.arrive(now)
	}
}

// arrive takes the next arrival off the source and runs it through
// admission, placement and the policy. Beyond the cap a request is shed,
// never queued; a breaker grant consumed by a later admission stage is
// handed back with Release so probe slots never leak. The placement draws
// are made only once admitted, so backpressure never shifts the placement
// stream.
func (sh *shard) arrive(now sim.Time) {
	ev, io := &sh.tmpl, sh.tmpl.IO
	if sh.events == nil {
		sh.gen.pop()
	} else {
		ev = &sh.events[sh.pos]
		sh.pos++
		// A recorded op size overrides the replay default; either is
		// clamped to the payload.
		io = sh.io
		if ev.IO > 0 {
			io = ev.IO
		}
		if ev.Bytes > 0 && ev.Bytes < io {
			io = ev.Bytes
		}
	}
	st, rk := sh.st, sh.rk
	st.offered++
	ok, probe := st.breaker.Allow(now)
	if !ok {
		st.drop(now, OutcomeShedBreaker, 0, 0)
		return
	}
	if rk.brown.Enabled() && rk.inflight >= rk.brown.Threshold(st.spec.Priority) {
		st.breaker.Release(probe)
		st.drop(now, OutcomeShedBrownout, 0, 0)
		return
	}
	if st.capacity > 0 && st.inflight >= st.capacity {
		st.breaker.Release(probe)
		st.drop(now, OutcomeShedAdmission, 0, 0)
		return
	}
	idx := sh.reqIdx % reqFiles
	sh.reqIdx++
	st.inflight++
	rk.inflight++
	rec := sh.getRec()
	rec.ev, rec.io, rec.start, rec.probe = ev, io, now, probe
	if target := sh.placement(); target != sh.r {
		// Forwarded: served on the owning rack, completed when the reply
		// lands back home, so its latency covers two link crossings. The
		// policy stays home — an abort token is single-Env state — so the
		// request runs plain and hands back its unused probe grant.
		st.breaker.Release(probe)
		rec.path, rec.target = sh.remPaths[idx], target
		rk.shard.Send(sh.racks[target].shard, 0, rec.fwdFn)
		return
	}
	rec.path = ev.File
	if rec.path == "" {
		rec.path = sh.paths[idx]
	}
	// The backoff jitter stream is per request: distinct shards (and
	// successive requests of one shard) must desynchronize, so the flow id
	// mixes the node index with the shard-local sequence number.
	rec.call.FlowID = (uint64(sh.node)+1)*0x9e3779b97f4a7c15 + sh.reqIdx
	switch {
	case sh.resilient:
		// The coordinator is a continuation, started like a plain
		// request's process: one calendar event at the arrival instant.
		sh.env.Schedule(now, rec.coordFn)
	case sh.start != nil:
		// Served without a process unless the mount must park first.
		sh.env.GoTry(sh.name, rec.tryFn, rec.runFn)
	default:
		sh.env.Go(sh.name, rec.runFn)
	}
}

// placement returns the rack owning the admitted request's data: with
// probability remote one of the other racks, uniformly, else home. It
// draws twice per request from the shard's placement stream.
func (sh *shard) placement() int {
	if sh.place == nil {
		return sh.r
	}
	u, v := sh.place.Uint64(), sh.place.Uint64()
	if float64(u>>11)/(1<<53) >= sh.remote {
		return sh.r
	}
	target := int(v % uint64(len(sh.racks)-1))
	if target >= sh.r {
		target++
	}
	return target
}

// reqRec is one pooled request lifecycle: the request's template or
// recorded event, its placement, the resilience call record (completion
// event, abort tokens, attempt closures) and the stage closures, bound once
// and recycled through the shard's free list. The generation counter makes
// stale references detectable in the pool-hardening tests; freed guards
// double release.
type reqRec struct {
	sh     *shard
	gen    uint64
	freed  bool
	ev     *trace.Event
	io     int64
	path   string
	start  sim.Time
	probe  bool
	target int
	runFn  func(rp *sim.Proc) // a plain tenant's request process
	tryFn  func() bool        // its GoTry attempt on the shard's Starter
	doneFn func()             // a served request's completion, back home

	// A resilient tenant's request: the call, started by coordFn and
	// settled by settleFn.
	call     resilience.Call
	coordFn  func()
	settleFn func(resilience.Outcome)

	// Forwarding stages: start the remote serve on the owning rack, serve
	// there, with a process (remFn) or without (remTryFn), and send the
	// reply home (sendFn), where doneFn completes the request.
	fwdFn    func()
	remFn    func(rp *sim.Proc)
	remTryFn func() bool
	sendFn   func()
}

// getRec draws a record from the shard pool, creating (and binding its
// closures, once) on first use.
func (sh *shard) getRec() *reqRec {
	if n := len(sh.free); n > 0 {
		rec := sh.free[n-1]
		sh.free[n-1] = nil
		sh.free = sh.free[:n-1]
		rec.freed = false
		return rec
	}
	rec := &reqRec{sh: sh}
	rec.doneFn = func() { sh.finish(rec, sh.env.Now(), resilience.Outcome{OK: true}) }
	if sh.resilient {
		rec.coordFn = rec.coordinate
		rec.settleFn = rec.settle
		rec.call.Attempt = func(ap *sim.Proc) { rec.serve(ap, sh.cl) }
		rec.call.OnIdle = func() { sh.freeRec(rec) }
	} else {
		rec.runFn = rec.run
		rec.tryFn = func() bool { return rec.startOn(sh.start, rec.doneFn) }
	}
	if sh.place != nil {
		// A forwarded record is handed between racks only through group
		// messages, whose barrier orders every access to it.
		rec.fwdFn = func() {
			owner := sh.racks[rec.target]
			if owner.tenants[sh.ti].remoteStart != nil {
				owner.env.GoTry(sh.name, rec.remTryFn, rec.remFn)
			} else {
				owner.env.Go(sh.name, rec.remFn)
			}
		}
		rec.remFn = func(rp *sim.Proc) {
			rec.serve(rp, sh.racks[rec.target].tenants[sh.ti].remote)
			rec.sendFn()
		}
		rec.remTryFn = func() bool {
			return rec.startOn(sh.racks[rec.target].tenants[sh.ti].remoteStart, rec.sendFn)
		}
		rec.sendFn = func() { sh.racks[rec.target].shard.Send(sh.rk.shard, 0, rec.doneFn) }
	}
	return rec
}

// freeRec returns a record to the pool. Double release is always a
// lifecycle bug, so it panics.
func (sh *shard) freeRec(rec *reqRec) {
	if rec.freed {
		panic("traffic: double release of pooled request record")
	}
	rec.freed = true
	rec.gen++
	sh.free = append(sh.free, rec)
}

// release recycles the record once nothing references it. A cancelled
// hedge/deadline loser can outlive its coordinator (it unwinds at its next
// cancellation point), so a record with live attempts defers to the call's
// OnIdle hook instead of recycling immediately.
func (rec *reqRec) release() {
	if !rec.call.Idle() {
		rec.call.DeferRelease()
		return
	}
	rec.sh.freeRec(rec)
}

// run is the request body of a plain tenant.
func (rec *reqRec) run(rp *sim.Proc) {
	rec.serve(rp, rec.sh.cl)
	rec.doneFn()
}

// coordinate starts a resilient tenant's request: the pooled call under
// the tenant policy, settled by settle.
func (rec *reqRec) coordinate() {
	st := rec.sh.st
	pl := st.spec.Resilience
	rec.call.Run(rec.sh.env, pl, pl.Hedge.Delay(st.sketch), st.breaker, rec.settleFn)
}

// settle books a resilient request's outcome and settles the breaker.
func (rec *reqRec) settle(out resilience.Outcome) {
	st := rec.sh.st
	now := rec.sh.env.Now()
	st.retries += uint64(out.Retries)
	st.hedges += uint64(out.Hedges)
	st.hedgeWins += uint64(out.HedgeWins)
	if out.OK {
		st.breaker.Success(rec.probe)
	} else {
		st.breaker.Failure(now, rec.probe)
	}
	rec.sh.finish(rec, now, out)
}

// serve performs the request's I/O on cl, keyed on its operation.
func (rec *reqRec) serve(p *sim.Proc, cl fsapi.Client) {
	switch rec.ev.Op {
	case trace.OpWrite:
		cl.StreamWrite(p, rec.path, fsapi.Sequential, rec.io, rec.ev.Bytes)
	case trace.OpRead:
		cl.StreamRead(p, rec.path, fsapi.Sequential, rec.io, rec.ev.Bytes)
	case trace.OpRandRead:
		cl.StreamRead(p, rec.path, fsapi.Random, rec.io, rec.ev.Bytes)
	case trace.OpMeta:
		f := cl.Open(p, rec.path, false)
		f.Close(p)
	}
}

// startOn is serve without a process, on a mount that offers it: it reports
// false, having changed nothing, when the mount must park before the
// transfer, and otherwise calls done where serve would have returned.
func (rec *reqRec) startOn(s fsapi.Starter, done func()) bool {
	switch rec.ev.Op {
	case trace.OpWrite:
		return s.StartStreamWrite(rec.path, fsapi.Sequential, rec.io, rec.ev.Bytes, done)
	case trace.OpRead:
		return s.StartStreamRead(rec.path, fsapi.Sequential, rec.io, rec.ev.Bytes, done)
	case trace.OpRandRead:
		return s.StartStreamRead(rec.path, fsapi.Random, rec.io, rec.ev.Bytes, done)
	case trace.OpMeta:
		return s.StartMeta(rec.path, done)
	}
	done() // serve does nothing for any other op
	return true
}

// finish settles a request that ended at now — served, or failed by its
// policy — and recycles its record. A completion feeds the sketch, the
// payload, the kept latencies, both observers and the makespan; its
// latency runs from arrival, so it includes any forwarding and retries.
func (sh *shard) finish(rec *reqRec, now sim.Time, out resilience.Outcome) {
	st := sh.st
	st.inflight--
	sh.rk.inflight--
	if !out.OK {
		st.drop(now, OutcomeDeadlineMiss, out.Retries, out.Hedges)
		rec.release()
		return
	}
	lat := now.Sub(rec.start)
	st.complete++
	st.payload += float64(rec.ev.Bytes)
	st.sketch.Add(lat.Seconds())
	if st.keep {
		st.lats = append(st.lats, lat.Seconds())
	}
	if now > st.last {
		st.last = now
	}
	if st.obs != nil {
		ev := *rec.ev
		if sh.events == nil {
			ev.At = rec.start
		}
		ev.Latency, ev.Rank, ev.File = lat, sh.node, rec.path
		st.obs(ev)
	}
	if st.outObs != nil {
		st.outObs(OutcomeEvent{
			At: now, Tenant: st.spec.Name, Kind: OutcomeCompleted,
			Bytes: rec.ev.Bytes, Retries: out.Retries, Hedges: out.Hedges,
		})
	}
	rec.release()
}
