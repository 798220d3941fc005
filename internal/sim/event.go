package sim

import "slices"

// Event kinds. The scheduler devirtualizes its two hottest callbacks —
// resuming a parked process and starting a new one — into explicit kinds, so
// a timer fire on the no-cancel fast path never touches a closure.
const (
	evFn       = uint8(iota) // run fn()
	evResume                 // resume the parked process proc
	evStart                  // run proc.fn on a (possibly recycled) worker goroutine
	evTransfer               // run the due stage of proc's pending transfer xfer
	evDead                   // cancelled in place; swept and recycled at drain time
)

// Sentinel values for timedEvent.idx recording where the event currently
// lives. Values >= 0 are positions in an eventHeap.
const (
	evIdxNone   = -1 // popped, cancelled, or sitting in the free pool
	evIdxBucket = -2 // sitting in a calendar-queue bucket
	evIdxSlot   = -3 // sitting in a calendar-queue second-level slot
)

// timedEvent is an entry in the event calendar. Events scheduled for the
// same time run in scheduling order (seq), which makes the calendar a total
// order and the simulation deterministic.
//
// Events are pooled: once fired or cancelled they return to a free list and
// are reused by the next Schedule. gen is bumped on every fire and cancel,
// so a stale Timer held across the event's recycling can never cancel
// the pooled object's next incarnation.
type timedEvent struct {
	at   Time
	seq  uint64
	gen  uint64
	kind uint8
	// idx is the event's position in a heap, or one of the evIdx sentinels.
	// Tracking it makes Cancel a true removal, so Pending() never counts
	// dead events — periodic observers (the invariant sampler) re-arm off
	// Pending() and must not be kept alive by a cancelled far-future timer.
	// An int32 sits beside kind, which keeps the event at 64 bytes.
	idx  int32
	fn   func()
	proc *Proc
	// xfer is the pending transfer an evTransfer event advances (see
	// Fabric.TransferAfter).
	xfer *pendingTransfer
	// next links the events of one calendar second-level slot.
	next *timedEvent
}

// before reports whether a precedes b in the calendar's total order.
func (a *timedEvent) before(b *timedEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// sortEvents orders a bucket by (at, seq). The key is unique per event, so
// any comparison sort yields the same — deterministic — permutation.
func sortEvents(items []*timedEvent) {
	slices.SortFunc(items, func(a, b *timedEvent) int {
		switch {
		case a.at < b.at:
			return -1
		case a.at > b.at:
			return 1
		case a.seq < b.seq:
			return -1
		default:
			return 1
		}
	})
}

// eventPool is a free list of timedEvents. The simulation is single-threaded
// by construction (one process runs at a time), so a plain slice beats
// sync.Pool: no locks, no per-P caches, fully deterministic reuse order.
type eventPool struct {
	free []*timedEvent
}

func (p *eventPool) get() *timedEvent {
	if n := len(p.free); n > 0 {
		ev := p.free[n-1]
		p.free = p.free[:n-1]
		return ev
	}
	return &timedEvent{idx: evIdxNone}
}

func (p *eventPool) put(ev *timedEvent) {
	ev.fn = nil
	ev.proc = nil
	ev.xfer = nil
	ev.idx = evIdxNone
	p.free = append(p.free, ev)
}

// eventHeap is a binary min-heap ordered by (at, seq). It implements the
// subset of container/heap we need, specialized to avoid interface
// allocations. The calendar queue uses it for far-future overflow events;
// the simreference build uses it as the whole scheduler.
type eventHeap struct {
	items []*timedEvent
}

func (h *eventHeap) len() int { return len(h.items) }

func (h *eventHeap) less(i, j int) bool { return h.items[i].before(h.items[j]) }

func (h *eventHeap) swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.items[i].idx = int32(i)
	h.items[j].idx = int32(j)
}

func (h *eventHeap) push(ev *timedEvent) {
	ev.idx = int32(len(h.items))
	h.items = append(h.items, ev)
	h.up(len(h.items) - 1)
}

func (h *eventHeap) pop() *timedEvent {
	n := len(h.items) - 1
	h.swap(0, n)
	ev := h.items[n]
	h.items[n] = nil
	h.items = h.items[:n]
	if n > 0 {
		h.down(0)
	}
	ev.idx = evIdxNone
	return ev
}

// remove deletes the event at heap position i. The relative order of the
// remaining events is untouched, so cancellation never perturbs the
// deterministic schedule.
func (h *eventHeap) remove(i int) {
	n := len(h.items) - 1
	ev := h.items[i]
	if i != n {
		h.swap(i, n)
	}
	h.items[n] = nil
	h.items = h.items[:n]
	if i < n {
		h.down(i)
		h.up(i)
	}
	ev.idx = evIdxNone
}

// peek returns the earliest event without removing it.
func (h *eventHeap) peek() *timedEvent { return h.items[0] }

func (h *eventHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *eventHeap) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(l, smallest) {
			smallest = l
		}
		if r < n && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.swap(i, smallest)
		i = smallest
	}
}
