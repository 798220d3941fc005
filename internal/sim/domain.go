package sim

import (
	"fmt"
	"math"
	"runtime"
	"slices"
)

// Domain-parallel execution: one simulation partitioned into shards that
// advance concurrently under conservative synchronization.
//
// A Shard owns a whole Env — its own virtual clock, timer wheel, event pool
// and process set — so shard-local execution is exactly the single-threaded
// kernel, untouched. Shards interact only through timestamped cross-shard
// messages carried over declared Links, and every link has a positive
// latency. The minimum link latency is the group's lookahead L: a shard at
// virtual time t cannot affect any other shard before t+L, which is the
// classical conservative-synchronization guarantee the coordinator exploits.
//
// The Group advances the shards in bounded windows. All shards stand at a
// common barrier time T; the coordinator delivers every message produced so
// far (each provably timestamped >= T), picks the next boundary
//
//	T' = min(until, max(T+L, earliest pending event across all shards))
//
// and has every shard execute its events with timestamps <= T'. Messages a
// shard sends during the window land in a shard-local outbox; the
// coordinator gathers them at the barrier and delivers them in the global
// (deliverAt, source shard, send seq) order before any shard moves again.
//
// Executors deal the shards round-robin, and executor 0 is the coordinator
// itself — the Run caller's goroutine. A window runs in-line on the
// coordinator unless at least two executors own a shard with an event due
// by T'; only then are the other executors with work commanded, while the
// coordinator steps its own shards and the idle executors' (see advance).
//
// Correctness of the window: a message sent at local time s carries
// deliverAt >= s+L. In a busy window every executed event has s in [T, T'],
// T' <= T+L, so deliverAt >= T+L >= T'. In an idle-skip window (T' =
// earliest pending event > T+L) the only executable events sit exactly at
// T', so deliverAt >= T'+L > T'. Either way no message is ever due before
// the barrier at which it is delivered — the simulation cannot miss or
// reorder a cross-shard interaction, and the outcome is bit-for-bit
// identical whether the windows run on one goroutine or sixteen.
//
// Determinism does not merely hold per executor count — the entire
// observable execution is independent of the executor layout. Window
// boundaries are computed from global minima, shard-local execution is
// single-threaded, and message delivery order is a sorted total order, so
// none of them can see how shards were assigned to goroutines. The lockstep
// tests and FuzzDomainsVsSequential pin exactly this property.
type Group struct {
	shards []*Shard
	links  map[[2]int32]Duration
	// executors is the requested cap until the first Run, then the
	// effective count E: clamped to the shard count, 1 under simsequential.
	executors int
	lookahead Duration

	clock     Time
	finalized bool

	// pending is the barrier-time message scratch, reused across rounds.
	pending []xmsg

	// next[i] is shard i's earliest pending event as boundary peeked it
	// (MaxInt64 when its calendar is empty); busy[x] reports whether
	// executor x owns a shard with an event due by the window's boundary.
	next []Time
	busy []bool

	// Parallel plumbing: cmds[x-1] commands executor x's goroutine, and all
	// of them ack on one channel. The goroutines start on the first window
	// that needs them and are dismissed by Shutdown.
	cmds []chan Time
	acks chan any

	// commanded counts the windows that commanded an executor goroutine;
	// every other window ran in-line on the coordinator.
	commanded int
}

// Shard is one partition of a domain-parallel simulation: an Env plus the
// group bookkeeping that lets it exchange timestamped messages with its
// neighbors.
type Shard struct {
	id    int32
	name  string
	env   *Env
	group *Group

	// out[i] is the latency of this shard's link to shard i (0 = no link),
	// resolved from the group's link set when the first Run finalizes the
	// topology.
	out []Duration

	// outbox collects the messages sent during the current window. Only the
	// goroutine stepping this shard touches it until the barrier, where the
	// coordinator (ordered by the ack channel) drains it.
	outbox  []xmsg
	sendSeq uint64
}

// xmsg is one cross-shard message: fn runs on the destination shard's Env at
// virtual time at. (src, seq) breaks delivery ties deterministically.
type xmsg struct {
	at       Time
	src, dst int32
	seq      uint64
	fn       func()
}

// NewGroup returns an empty domain group. parallel caps the number of
// executors that advance shards concurrently, the Run caller's goroutine
// included: 0 means GOMAXPROCS, 1 means strictly sequential in-line
// execution (the differential oracle), and any value is further clamped to
// the shard count. Building with `-tags simsequential` forces 1 group-wide.
func NewGroup(parallel int) *Group {
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	return &Group{executors: parallel, links: map[[2]int32]Duration{}}
}

// AddShard registers env as one shard of the group. The Env must be
// exclusive to this shard — its clock is advanced only through the group
// from here on. Shards must all be added before the first Run.
func (g *Group) AddShard(name string, env *Env) *Shard {
	if g.finalized {
		panic("sim: AddShard after the group started running")
	}
	if env.now != 0 || env.running {
		panic("sim: shard Env must be fresh: " + name)
	}
	s := &Shard{id: int32(len(g.shards)), name: name, env: env, group: g}
	g.shards = append(g.shards, s)
	return s
}

// Name returns the shard name.
func (s *Shard) Name() string { return s.name }

// Env returns the shard's environment.
func (s *Shard) Env() *Env { return s.env }

// Link declares a one-way channel from shard a to shard b with the given
// message latency. Latency must be positive: a zero-latency link would give
// the group zero lookahead and serialize every window. Re-linking a pair
// keeps the smaller latency.
func (g *Group) Link(a, b *Shard, latency Duration) {
	if g.finalized {
		panic("sim: Link after the group started running")
	}
	if a.group != g || b.group != g {
		panic("sim: Link across groups")
	}
	if a == b {
		panic("sim: self-link: " + a.name)
	}
	if latency <= 0 {
		panic(fmt.Sprintf("sim: link latency must be positive: %s -> %s", a.name, b.name))
	}
	key := [2]int32{a.id, b.id}
	if cur, ok := g.links[key]; !ok || latency < cur {
		g.links[key] = latency
	}
}

// LinkAll declares a full bidirectional mesh over every shard at the given
// latency — the common fabric-segment topology where any rack can reach any
// other in one hop.
func (g *Group) LinkAll(latency Duration) {
	for _, a := range g.shards {
		for _, b := range g.shards {
			if a != b {
				g.Link(a, b, latency)
			}
		}
	}
}

// Now returns the group's barrier clock — the common virtual time every
// shard has reached.
func (g *Group) Now() Time { return g.clock }

// Send schedules fn to run on shard `to` at the sender's current virtual
// time plus the link latency plus extra (>= 0). It must be called from
// within the sending shard's window — a process or event callback running
// on s.Env() — and the two shards must be linked. Messages become visible
// to the destination at the next barrier; conservative synchronization
// guarantees that is always before their timestamp.
func (s *Shard) Send(to *Shard, extra Duration, fn func()) {
	if extra < 0 {
		panic("sim: negative extra send delay")
	}
	lat := Duration(0)
	if int(to.id) < len(s.out) {
		lat = s.out[to.id]
	}
	if lat <= 0 {
		panic(fmt.Sprintf("sim: no link %s -> %s", s.name, to.name))
	}
	s.outbox = append(s.outbox, xmsg{
		at:  s.env.now.Add(lat + extra),
		src: s.id, dst: to.id,
		seq: s.sendSeq,
		fn:  fn,
	})
	s.sendSeq++
}

// finalize freezes the topology: per-shard link slices, the lookahead and
// the effective executor count.
func (g *Group) finalize() {
	if g.finalized {
		return
	}
	g.finalized = true
	n := len(g.shards)
	for _, s := range g.shards {
		s.out = make([]Duration, n)
	}
	g.executors = max(1, min(g.executors, n))
	if forceSequentialGroups {
		g.executors = 1
	}
	g.next = make([]Time, n)
	g.busy = make([]bool, g.executors)
	for key, lat := range g.links {
		g.shards[key[0]].out[key[1]] = lat
		if g.lookahead == 0 || lat < g.lookahead {
			g.lookahead = lat
		}
	}
}

// Run advances every shard to virtual time `until` under conservative
// window synchronization and returns the barrier clock. It may be called
// repeatedly with increasing deadlines; call Shutdown when the simulation
// is over.
func (g *Group) Run(until Time) Time {
	g.finalize()
	if until < g.clock {
		panic(fmt.Sprintf("sim: group run until %v before barrier clock %v", until, g.clock))
	}
	for g.clock < until {
		g.deliver()
		boundary, busy := g.boundary(until)
		g.advance(boundary, busy)
		g.collect()
		g.clock = boundary
	}
	return g.clock
}

// boundary picks the next barrier time: one lookahead ahead, stretched to
// the earliest pending event when every shard is idle longer than that
// (idle skip), and capped at the deadline. With no pending events anywhere
// — and deliver() has already drained the message queue — nothing can
// happen before `until`, so the window jumps straight there. It peeks each
// shard's calendar once, marks in g.busy the executors owning a shard with
// an event due by the boundary, and returns how many executors that is.
func (g *Group) boundary(until Time) (Time, int) {
	earliest := Time(math.MaxInt64)
	for i, s := range g.shards {
		at, ok := s.env.q.nextAt()
		if !ok {
			at = math.MaxInt64
		}
		g.next[i] = at
		earliest = min(earliest, at)
	}
	if earliest == math.MaxInt64 {
		return until, 0
	}
	boundary := until
	if g.lookahead > 0 {
		boundary = g.clock.Add(g.lookahead)
		if boundary < g.clock { // overflow
			boundary = Time(math.MaxInt64)
		}
		boundary = min(max(boundary, earliest), until)
	}
	clear(g.busy)
	busy := 0
	for i, at := range g.next {
		if x := i % g.executors; at <= boundary && !g.busy[x] {
			g.busy[x] = true
			busy++
		}
	}
	return boundary, busy
}

// collect drains every shard's outbox into the pending set. Runs at the
// barrier, after the ack channel ordered the executors' writes.
func (g *Group) collect() {
	for _, s := range g.shards {
		g.pending = append(g.pending, s.outbox...)
		clear(s.outbox)
		s.outbox = s.outbox[:0]
	}
}

// deliver schedules every pending message on its destination shard in the
// global (deliverAt, src, seq) order — a total order, since (src, seq) is
// unique — so the destination Env's tie-breaking sequence numbers are
// assigned identically no matter how the producing windows were laid out
// across executors.
func (g *Group) deliver() {
	if len(g.pending) == 0 {
		return
	}
	slices.SortFunc(g.pending, func(a, b xmsg) int {
		switch {
		case a.at != b.at:
			if a.at < b.at {
				return -1
			}
			return 1
		case a.src != b.src:
			return int(a.src - b.src)
		case a.seq < b.seq:
			return -1
		default:
			return 1
		}
	})
	for i := range g.pending {
		m := &g.pending[i]
		dst := g.shards[m.dst]
		if m.at < dst.env.now {
			panic(fmt.Sprintf("sim: conservative synchronization violated: message from %s due %v behind %s clock %v",
				g.shards[m.src].name, m.at, dst.name, dst.env.now))
		}
		dst.env.scheduleFn(m.at, m.fn)
	}
	clear(g.pending)
	g.pending = g.pending[:0]
}

// advance runs every shard's window [clock, boundary], given how many
// executors have work in it. Before the next barrier only a shard's own
// events can schedule events on it, so a shard with nothing due by the
// boundary stays idle for the whole window and stepping it only moves its
// clock. A window in which at most one executor has work — every window of
// a sequential group — therefore runs in-line on the coordinator: waking
// executors would buy no concurrency. Otherwise the coordinator acts as
// executor 0: it commands the other executors that have work, steps its own
// shards and the idle executors' shards itself, and then takes exactly one
// ack per command before re-raising any share's panic.
func (g *Group) advance(boundary Time, busy int) {
	if busy <= 1 {
		for _, s := range g.shards {
			s.env.StepUntil(boundary)
		}
		return
	}
	if g.cmds == nil {
		g.startExecutors()
	}
	g.commanded++
	sent := 0
	for x, ch := range g.cmds {
		if g.busy[x+1] {
			ch <- boundary
			sent++
		}
	}
	failure := g.stepUncommanded(boundary)
	for ; sent > 0; sent-- {
		if v := <-g.acks; failure == nil {
			failure = v
		}
	}
	if failure != nil {
		panic(failure)
	}
}

// stepUncommanded advances, on the coordinator, every shard no executor
// goroutine was commanded to step this window: executor 0's and each idle
// executor's. Like runWindow it returns a panic as a value, so the
// coordinator still collects every ack before re-raising it.
func (g *Group) stepUncommanded(boundary Time) (failure any) {
	defer func() { failure = recover() }()
	for i, s := range g.shards {
		if x := i % g.executors; x == 0 || !g.busy[x] {
			s.env.StepUntil(boundary)
		}
	}
	return nil
}

// startExecutors launches the goroutines of executors 1..E-1; executor 0 is
// the coordinator. Executor x owns shards x, x+E, x+2E, ... — a static
// round-robin deal. In each window every shard is stepped by exactly one
// goroutine (its executor's when commanded, the coordinator's otherwise),
// and the command and ack channels order each hand-over, so the deal needs
// no locking. Which goroutine advances a shard is invisible to the
// simulation; the deal only spreads wall-clock load.
func (g *Group) startExecutors() {
	e := g.executors
	g.acks = make(chan any)
	g.cmds = make([]chan Time, e-1)
	for x := 1; x < e; x++ {
		ch := make(chan Time)
		g.cmds[x-1] = ch
		mine := make([]*Shard, 0, (len(g.shards)+e-1)/e)
		for j := x; j < len(g.shards); j += e {
			mine = append(mine, g.shards[j])
		}
		go func() {
			for boundary := range ch {
				g.acks <- runWindow(mine, boundary)
			}
		}()
	}
}

// runWindow advances an executor's shards to the boundary, converting a
// model panic into a value the coordinator re-panics with on its own
// goroutine — a model bug inside a parallel window must surface at the Run
// caller, exactly as it does in sequential mode.
func runWindow(shards []*Shard, boundary Time) (failure any) {
	defer func() { failure = recover() }()
	for _, s := range shards {
		s.env.StepUntil(boundary)
	}
	return nil
}

// Shutdown dismisses the executor goroutines and shuts every shard Env
// down, unwinding the processes still parked in it (Env.Shutdown). The
// group cannot Run again afterwards.
func (g *Group) Shutdown() {
	for _, ch := range g.cmds {
		close(ch)
	}
	g.cmds = nil
	for _, s := range g.shards {
		s.env.Shutdown()
	}
}
