package sim

import (
	"fmt"
	"math"
	"slices"
)

// Sharded execution: one simulation partitioned into shards that advance
// in barrier-synchronized windows under conservative synchronization.
//
// A Shard owns a whole Env — its own virtual clock, timer wheel, event pool
// and process set — so shard-local execution is exactly the single-threaded
// kernel, untouched. Shards interact only through timestamped cross-shard
// messages carried over declared Links, and every link has a positive
// latency. The minimum link latency is the group's lookahead L: a shard at
// virtual time t cannot affect any other shard before t+L, which is the
// classical conservative-synchronization guarantee the group exploits.
//
// The Group advances the shards in bounded windows. All shards stand at a
// common barrier time T; the group delivers every message produced so far
// (each provably timestamped >= T), picks the next boundary
//
//	T' = min(until, max(T+L, earliest pending event across all shards))
//
// and steps every shard, in shard order, through its events with
// timestamps <= T'. Messages a shard sends during the window wait in the
// group's pending set until the barrier, where they are delivered in the
// global (deliverAt, source shard, send seq) order before any shard moves
// again. The window loop (next) runs on whichever goroutine holds the
// baton when a shard's calendar drains: a process goroutine of any shard,
// or the Run caller.
//
// Correctness of the window: a message sent at local time s carries
// deliverAt >= s+L. In a busy window every executed event has s in [T, T'],
// T' <= T+L, so deliverAt >= T+L >= T'. In an idle-skip window (T' =
// earliest pending event > T+L) the only executable events sit exactly at
// T', so deliverAt >= T'+L > T'. Either way no message is ever due before
// the barrier at which it is delivered — the simulation cannot miss or
// reorder a cross-shard interaction.
//
// The group starts no goroutine. Stepping shards on concurrent executors
// measured slower than stepping them in turn on every rig the commands
// build (docs/MODEL.md §13).
type Group struct {
	shards    []*Shard
	links     map[[2]int32]Duration
	lookahead Duration

	clock     Time
	finalized bool

	// The run in progress (see next): its deadline, the current window's
	// boundary and the index of the shard being stepped, len(shards)
	// while no window is open. running is set for the length of Run.
	until, bound Time
	cur          int
	running      bool

	// back is where Run waits while another goroutine holds the baton.
	// Every shard's Env shares it as its mainResume, so the goroutine
	// that ends the run, or relays a callback panic from any shard, hands
	// the baton back here.
	back chan struct{}

	// pending holds the messages sent since the last barrier, reused
	// across windows.
	pending []xmsg
}

// Shard is one partition of a sharded simulation: an Env plus the
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
	out     []Duration
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

// NewGroup returns an empty group. Its argument is ignored; it stays so
// that callers passing an executor count still compile. Pass 1.
func NewGroup(int) *Group {
	return &Group{links: map[[2]int32]Duration{}, back: make(chan struct{})}
}

// AddShard registers env as one shard of the group. The Env must be
// exclusive to this shard — its clock is advanced only through the group
// from here on. Shards must all be added before the first Run.
func (g *Group) AddShard(name string, env *Env) *Shard {
	if g.finalized {
		panic("sim: AddShard after the group started running")
	}
	if env.now != 0 || env.running || env.group != nil {
		panic("sim: shard Env must be fresh: " + name)
	}
	env.group, env.mainResume = g, g.back
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
	g := s.group
	g.pending = append(g.pending, xmsg{
		at:  s.env.now.Add(lat + extra),
		src: s.id, dst: to.id,
		seq: s.sendSeq,
		fn:  fn,
	})
	s.sendSeq++
}

// finalize freezes the topology: per-shard link slices and the lookahead.
func (g *Group) finalize() {
	if g.finalized {
		return
	}
	g.finalized = true
	n := len(g.shards)
	for _, s := range g.shards {
		s.out = make([]Duration, n)
	}
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
//
// The caller lends the baton to the first process a shard resumes or
// starts, and the windows go on on whichever goroutine holds it (next).
// The caller gets it back once, when the run reaches `until` or a model
// callback on any shard panics; Run re-panics with the original value.
func (g *Group) Run(until Time) Time {
	g.finalize()
	if until < g.clock {
		panic(fmt.Sprintf("sim: group run until %v before barrier clock %v", until, g.clock))
	}
	g.until, g.bound, g.cur = until, g.clock, len(g.shards)
	g.setRunning(true)
	defer g.setRunning(false)
	if g.next(nil) == dispHandoff {
		<-g.back
		for _, s := range g.shards {
			s.env.rethrow()
		}
	}
	return g.clock
}

// setRunning marks the group and every shard Env running or not. Run
// clears the marks on every exit, a panic's included, so that Shutdown
// works afterwards.
func (g *Group) setRunning(on bool) {
	g.running = on
	for _, s := range g.shards {
		s.env.running = on
	}
}

// next is the window loop, run by whichever goroutine holds the baton: a
// process goroutine of any shard (w), or the Run caller (w nil). It
// carries on where the shard being stepped drained to the boundary: it
// stands that shard's clock there and steps the next one, and when the
// window closes it delivers the pending messages and opens the next. It
// returns dispDone when the run reaches its deadline, else the outcome of
// the dispatch that handed the baton off or resumed w's own process.
//
// Only the goroutine differs; calendars, boundaries and deliveries are
// the same on any. A worker may step other shards because a process runs
// only while its own shard is stepped, dispatch returns dispSelf only for
// w's own process or for w on top of its own Env's pool, and a pooled w
// stays on top of that pool until it hands the baton off, so recycleProc's
// argument holds (docs/MODEL.md §11).
func (g *Group) next(w *worker) int {
	for {
		if g.cur < len(g.shards) {
			// The shard being stepped has drained to the boundary.
			if e := g.shards[g.cur].env; e.now < g.bound {
				e.now = g.bound
			}
			g.cur++
		} else {
			// The window has closed: every shard stands at the boundary.
			g.clock = g.bound
			if g.clock == g.until {
				return dispDone
			}
			g.deliver()
			g.bound = g.boundary(g.until)
			g.cur = 0
		}
		if g.cur == len(g.shards) {
			continue
		}
		e := g.shards[g.cur].env
		e.deadline = g.bound
		if d := e.dispatch(w); d != dispDone {
			return d
		}
	}
}

// boundary picks the next barrier time: one lookahead ahead, stretched to
// the earliest pending event when every shard is idle longer than that
// (idle skip), and capped at the deadline. With no pending events anywhere
// — and deliver() has already drained the message queue — nothing can
// happen before `until`, so the window jumps straight there.
func (g *Group) boundary(until Time) Time {
	earliest := Time(math.MaxInt64)
	for _, s := range g.shards {
		if at, ok := s.env.q.nextAt(); ok {
			earliest = min(earliest, at)
		}
	}
	if earliest == math.MaxInt64 || g.lookahead == 0 {
		return until
	}
	boundary := g.clock.Add(g.lookahead)
	if boundary < g.clock { // overflow
		boundary = Time(math.MaxInt64)
	}
	return min(max(boundary, earliest), until)
}

// deliver schedules every pending message on its destination shard in the
// global (deliverAt, src, seq) order — a total order, since (src, seq) is
// unique — so the destination Env's tie-breaking sequence numbers follow
// from the messages alone.
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
		dst.env.Schedule(m.at, m.fn)
	}
	clear(g.pending)
	g.pending = g.pending[:0]
}

// Shutdown shuts every shard Env down, unwinding the processes still
// parked in it (Env.Shutdown). The group cannot Run again afterwards.
func (g *Group) Shutdown() {
	for _, s := range g.shards {
		s.env.Shutdown()
	}
}
