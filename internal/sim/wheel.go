package sim

import "math/bits"

// Calendar-queue geometry. The wheel is a ring of buckets covering a sliding
// window of virtual time starting at base: an event lands in the wheel when
// it is within wheelSpan of base, and in the overflow heap otherwise. The
// window only moves when the wheel is empty (pop rebases it onto the
// overflow minimum and cascades near-future events in), which keeps the
// bucket→time mapping single-lap and therefore trivially ordered.
const (
	wheelBucketShift = 6   // 64 ns of virtual time per bucket
	wheelBuckets     = 256 // window span: 16384 ns
	wheelMask        = wheelBuckets - 1
	wheelWords       = wheelBuckets / 64
	wheelSpan        = Time(wheelBuckets << wheelBucketShift)
)

// calBucket is one wheel slot. Events append unsorted; the first drain of
// the bucket sorts it by (at, seq) once, and inserts that arrive while the
// bucket is mid-drain keep the remainder ordered with a binary-search
// insert. head marks how far the drain has progressed, so exhausting a
// bucket is a cheap truncation that keeps the slice's capacity for the next
// lap of the window.
type calBucket struct {
	items  []*timedEvent
	head   int
	sorted bool
}

// calQueue is the production scheduler: a hierarchical timer-wheel /
// calendar-queue hybrid. Near-future events cost O(1) to insert and pop —
// the dominant patterns, scheduling at the current instant (process wakes,
// coalesced fabric solves, event broadcasts) and short timers, never touch
// a heap — while far-future events wait in a binary heap and cascade into
// buckets when the window reaches them, paying the O(log n) at most once.
//
// Determinism: the queue pops in exactly the (at, seq) total order of the
// seed's binary heap. Within a bucket events are sorted by (at, seq);
// buckets are drained in ascending time order (each bucket covers a
// disjoint 64 ns range of the window); and every wheel event precedes every
// overflow event because admission requires at - base < wheelSpan and the
// window never moves while the wheel is non-empty. refQueue is the
// reference implementation; FuzzWheelVsHeap checks the equivalence over
// fuzzed schedule/cancel/pop sequences.
type calQueue struct {
	base      Time // window start, aligned to bucket width; base <= Env.now
	nwheel    int  // events sitting in buckets, including tombstones
	wheelLive int  // live (non-cancelled) events in buckets
	occupied  [wheelWords]uint64
	overflow  eventHeap
	pool      eventPool
	buckets   [wheelBuckets]calBucket
}

func (q *calQueue) alloc() *timedEvent     { return q.pool.get() }
func (q *calQueue) release(ev *timedEvent) { q.pool.put(ev) }
func (q *calQueue) live() int              { return q.wheelLive + q.overflow.len() }

// insert files a pending event. The caller (Env) guarantees at >= now >=
// base, so the subtraction cannot go negative and the bucket mapping never
// lands behind the drain cursor's time.
func (q *calQueue) insert(ev *timedEvent) {
	if ev.at-q.base < wheelSpan {
		q.insertWheel(ev)
		return
	}
	q.overflow.push(ev)
}

func (q *calQueue) insertWheel(ev *timedEvent) {
	b := int(ev.at>>wheelBucketShift) & wheelMask
	bk := &q.buckets[b]
	ev.idx = evIdxBucket
	q.nwheel++
	q.wheelLive++
	if len(bk.items) == 0 {
		q.occupied[b>>6] |= 1 << (b & 63)
		bk.items = append(bk.items, ev)
		return
	}
	if bk.sorted {
		// Mid-drain bucket: keep the remainder ordered. seq is globally
		// increasing, so every already-filed event with the same timestamp
		// precedes ev and comparing times alone finds the slot.
		lo, hi := bk.head, len(bk.items)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if bk.items[mid].at <= ev.at {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		bk.items = append(bk.items, nil)
		copy(bk.items[lo+1:], bk.items[lo:])
		bk.items[lo] = ev
		return
	}
	bk.items = append(bk.items, ev)
}

// pop removes and returns the earliest live event if its timestamp is at
// most limit, or nil when the calendar is drained (or drained up to limit —
// the RunUntil deadline). A nil return never moves the window, so a
// deadline stop can be followed by schedules below the overflow minimum.
func (q *calQueue) pop(limit Time) *timedEvent {
	for {
		if q.nwheel > 0 {
			b := q.firstOccupied()
			bk := &q.buckets[b]
			if !bk.sorted {
				sortEvents(bk.items)
				bk.sorted = true
				bk.head = 0
			}
			for bk.head < len(bk.items) {
				ev := bk.items[bk.head]
				if ev.kind == evDead {
					// Tombstone from a bucket cancel: recycle it now.
					bk.items[bk.head] = nil
					bk.head++
					q.nwheel--
					q.pool.put(ev)
					continue
				}
				if ev.at > limit {
					return nil
				}
				bk.items[bk.head] = nil
				bk.head++
				q.nwheel--
				q.wheelLive--
				if bk.head == len(bk.items) {
					q.resetBucket(b, bk)
				}
				ev.idx = evIdxNone
				ev.gen++
				return ev
			}
			q.resetBucket(b, bk)
			continue
		}
		// Wheel empty: slide the window onto the overflow heap's earliest
		// region and cascade near-future events into buckets. Each overflow
		// event pays its heap traffic exactly once.
		if q.overflow.len() == 0 || q.overflow.peek().at > limit {
			return nil
		}
		q.base = q.overflow.peek().at &^ (1<<wheelBucketShift - 1)
		for q.overflow.len() > 0 && q.overflow.peek().at-q.base < wheelSpan {
			q.insertWheel(q.overflow.pop())
		}
	}
}

// nextAt returns the timestamp of the earliest live event without disturbing
// the calendar. Buckets are scanned in ring order from the window base; the
// first bucket holding a live (non-tombstone) event wins, because each bucket
// covers a disjoint time range and every wheel event precedes every overflow
// event (admission requires at - base < wheelSpan). The scan does not sort —
// a min over the bucket's live items is enough — so the calendar's lazy
// sort-on-first-drain behavior is untouched.
func (q *calQueue) nextAt() (Time, bool) {
	if q.wheelLive > 0 {
		// Ring order a word at a time, as in firstOccupied: the start
		// word's bits from the base on, the other words, then the start
		// word's bits below the base.
		s := int(q.base>>wheelBucketShift) & wheelMask
		w, bit := s>>6, uint(s&63)
		for i := 0; i <= wheelWords; i++ {
			ww := (w + i) & (wheelWords - 1)
			m := q.occupied[ww]
			switch i {
			case 0:
				m &^= 1<<bit - 1
			case wheelWords:
				m &= 1<<bit - 1
			}
			for ; m != 0; m &= m - 1 {
				bk := &q.buckets[ww<<6+bits.TrailingZeros64(m)]
				best, found := Time(0), false
				for _, ev := range bk.items[bk.head:] {
					if ev.kind != evDead && (!found || ev.at < best) {
						best, found = ev.at, true
					}
				}
				if found {
					return best, true
				}
			}
		}
		panic("sim: calendar live count out of sync")
	}
	if q.overflow.len() > 0 {
		return q.overflow.peek().at, true
	}
	return 0, false
}

// cancel removes a pending event: heap events are cut out of the overflow
// immediately; bucket events are tombstoned in place (excluded from live
// counts at once, recycled when the drain sweeps past them).
func (q *calQueue) cancel(ev *timedEvent) {
	switch {
	case ev.idx >= 0:
		q.overflow.remove(ev.idx)
		ev.gen++
		q.pool.put(ev)
	case ev.idx == evIdxBucket:
		ev.kind = evDead
		ev.fn = nil
		ev.proc = nil
		ev.gen++
		q.wheelLive--
	}
}

func (q *calQueue) resetBucket(b int, bk *calBucket) {
	bk.items = bk.items[:0]
	bk.head = 0
	bk.sorted = false
	q.occupied[b>>6] &^= 1 << (b & 63)
}

// firstOccupied returns the non-empty bucket holding the earliest events:
// the first set bitmap bit in ring order starting from base's bucket. The
// scan is over four words regardless of how sparse the wheel is.
func (q *calQueue) firstOccupied() int {
	s := int(q.base>>wheelBucketShift) & wheelMask
	w, bit := s>>6, uint(s&63)
	if m := q.occupied[w] &^ (1<<bit - 1); m != 0 {
		return w<<6 + bits.TrailingZeros64(m)
	}
	for i := 1; i < wheelWords; i++ {
		ww := (w + i) & (wheelWords - 1)
		if m := q.occupied[ww]; m != 0 {
			return ww<<6 + bits.TrailingZeros64(m)
		}
	}
	if m := q.occupied[w] & (1<<bit - 1); m != 0 {
		return w<<6 + bits.TrailingZeros64(m)
	}
	panic("sim: calendar bitmap out of sync")
}
