package sim

import (
	"math"
	"math/bits"
)

// Calendar-queue geometry: two levels of rings and a heap. The wheel is a
// ring of 64 ns buckets covering [base, base+wheelSpan); the second level
// is a ring of slots one wheel span wide, covering base's slot-aligned
// start and the 255 slots after it; anything later waits in the overflow
// heap. The window only moves when the wheel is empty (pop rebases it onto
// the earliest live event and cascades what the wheel now covers), which
// keeps both rings' index→time mappings single-lap and therefore trivially
// ordered.
const (
	wheelBucketShift = 6   // 64 ns of virtual time per bucket
	wheelBuckets     = 256 // window span: 16384 ns
	wheelMask        = wheelBuckets - 1
	wheelWords       = wheelBuckets / 64
	wheelSpan        = Time(wheelBuckets << wheelBucketShift)

	ringSlotShift = wheelBucketShift + 8 // one wheel span per slot
	ringSlots     = wheelBuckets         // level span: 4194304 ns
	levelSpan     = Time(ringSlots << ringSlotShift)
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

// calRing is the second level: each slot an unordered list of events
// linked through their next fields, so filing one allocates nothing. The
// ring has as many slots as the wheel has buckets, so the two share the
// index mask and the bitmap's size. The calendar allocates it on its
// first event past the wheel.
type calRing struct {
	slots    [ringSlots]*timedEvent
	occupied [wheelWords]uint64
}

// calQueue is the production scheduler: a hierarchical timer-wheel /
// calendar-queue hybrid (Varghese and Lauck, "Hashed and Hierarchical
// Timing Wheels", SOSP 1987). Near-future events cost O(1) to insert and
// pop — the dominant patterns, scheduling at the current instant (process
// wakes, coalesced fabric solves, event broadcasts) and short timers, never
// touch a heap. Events within 4.19 ms are filed in O(1) in the second
// level and cascade into the wheel's buckets when the window reaches their
// slot; only farther events wait in a binary heap and pay its O(log n),
// once, when the second level reaches them.
//
// Determinism: the queue pops in exactly the (at, seq) total order of the
// seed's binary heap. Within a bucket events are sorted by (at, seq);
// buckets are drained in ascending time order (each bucket covers a
// disjoint 64 ns range of the window); every wheel event precedes every
// ring event, and every ring event every heap event, because admission
// bounds each level's times and every move of the window cascades what
// the wheel now covers and pulls in what the ring now reaches. refQueue is
// the reference implementation; FuzzWheelVsHeap checks the equivalence
// over fuzzed schedule/cancel/pop sequences.
type calQueue struct {
	base      Time // window start, aligned to bucket width; base <= Env.now
	nwheel    int  // events sitting in buckets, including tombstones
	wheelLive int  // live (non-cancelled) events in buckets
	occupied  [wheelWords]uint64
	ring      *calRing // nil until the first event past the wheel
	nring     int      // events sitting in slots, including tombstones
	ringLive  int      // live events in slots
	overflow  eventHeap
	overflows int // events filed into overflow (see Env.Overflows)
	pool      eventPool
	buckets   [wheelBuckets]calBucket
}

func (q *calQueue) alloc() *timedEvent     { return q.pool.get() }
func (q *calQueue) release(ev *timedEvent) { q.pool.put(ev) }
func (q *calQueue) live() int              { return q.wheelLive + q.ringLive + q.overflow.len() }

// insert files a pending event. The caller (Env) guarantees at >= now >=
// base, so the subtractions cannot go negative and the bucket mapping never
// lands behind the drain cursor's time.
func (q *calQueue) insert(ev *timedEvent) {
	switch {
	case ev.at-q.base < wheelSpan:
		q.insertWheel(ev)
	case ev.at-q.ringStart() < levelSpan:
		q.insertRing(ev)
	default:
		q.overflows++
		q.overflow.push(ev)
	}
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

// ringStart is the start of the window base's slot, where the second
// level's reach begins.
func (q *calQueue) ringStart() Time { return q.base &^ (1<<ringSlotShift - 1) }

func (q *calQueue) insertRing(ev *timedEvent) {
	r := q.ring
	if r == nil {
		r = new(calRing)
		q.ring = r
	}
	s := int(ev.at>>ringSlotShift) & wheelMask
	ev.idx = evIdxSlot
	ev.next = r.slots[s]
	r.slots[s] = ev
	r.occupied[s>>6] |= 1 << (s & 63)
	q.nring++
	q.ringLive++
}

// pop removes and returns the earliest live event if its timestamp is at
// most limit, or nil when the calendar is drained (or drained up to limit —
// the RunUntil deadline). A nil return never moves the window, so a
// deadline stop can be followed by schedules below the second level's or
// the overflow's minimum.
func (q *calQueue) pop(limit Time) *timedEvent {
	for {
		if q.nwheel > 0 {
			b := firstSet(&q.occupied, int(q.base>>wheelBucketShift)&wheelMask)
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
		if q.nring > 0 {
			// Wheel empty: cascade the first occupied slot, whose earliest
			// live event must be due by limit. Only a limit short of the
			// slot's end needs the look.
			s := firstSet(&q.ring.occupied, int(q.base>>ringSlotShift)&wheelMask)
			end := Time((s-int(q.base>>ringSlotShift))&wheelMask+1) << ringSlotShift
			if limit < q.ringStart() || limit-q.ringStart() < end-1 {
				if at, ok := q.slotMin(s); ok && at > limit {
					return nil
				}
			}
			if at, ok := q.moveSlot(s, math.MaxInt64); ok {
				q.rebase(at)
			} // else tombstones only, recycled where they lay
			continue
		}
		// Wheel and ring empty: rebase onto the overflow heap's minimum.
		if q.overflow.len() == 0 || q.overflow.peek().at > limit {
			return nil
		}
		q.rebase(q.overflow.peek().at)
	}
}

// rebase slides the window onto at's bucket, at being the earliest live
// event, with the wheel empty or holding just at's slot (pop cascades it
// first: its events lie in [at, slot end)). The wheel now also covers the
// start of the next slot, whose events there cascade too, and the ring
// reaches further, so the heap events it now reaches are pulled in. Each
// heap event thus pays its heap traffic once, and every level's events
// stay before the next level's.
func (q *calQueue) rebase(at Time) {
	q.base = at &^ (1<<wheelBucketShift - 1)
	if q.nring > 0 && q.base != q.ringStart() {
		q.moveSlot(int(q.base>>ringSlotShift+1)&wheelMask, q.base+wheelSpan-1)
	}
	for q.overflow.len() > 0 && q.overflow.peek().at-q.ringStart() < levelSpan {
		q.insert(q.overflow.pop())
	}
}

// moveSlot takes slot s's events due by last out of the ring — live ones
// into the wheel, tombstones back to the pool — and returns the earliest
// live time it moved. The rest stay in the slot.
func (q *calQueue) moveSlot(s int, last Time) (first Time, moved bool) {
	r := q.ring
	var keep *timedEvent
	for ev := r.slots[s]; ev != nil; {
		next := ev.next
		ev.next = nil
		switch {
		case ev.kind == evDead:
			q.nring--
			q.pool.put(ev)
		case ev.at <= last:
			q.nring--
			q.ringLive--
			q.insertWheel(ev)
			if !moved || ev.at < first {
				first, moved = ev.at, true
			}
		default:
			ev.next = keep
			keep = ev
		}
		ev = next
	}
	r.slots[s] = keep
	if keep == nil {
		r.occupied[s>>6] &^= 1 << (s & 63)
	}
	return first, moved
}

// nextAt returns the timestamp of the earliest live event without
// disturbing the calendar. Every wheel event precedes every ring event and
// every ring event every heap event, so the first level holding a live
// event has it. Within a ring level the occupied buckets (slots) are
// scanned in ring order from the window base's, and the first holding a
// live (non-tombstone) event wins, because each covers a disjoint time
// range. The scan does not sort — a min over the live items is enough — so
// the calendar's lazy sort-on-first-drain behavior is untouched.
func (q *calQueue) nextAt() (Time, bool) {
	switch {
	case q.wheelLive > 0:
		return firstLive(&q.occupied, int(q.base>>wheelBucketShift)&wheelMask, q.bucketMin), true
	case q.ringLive > 0:
		return firstLive(&q.ring.occupied, int(q.base>>ringSlotShift)&wheelMask, q.slotMin), true
	case q.overflow.len() > 0:
		return q.overflow.peek().at, true
	}
	return 0, false
}

// firstLive returns the earliest live time of a ring level that holds a
// live event: minLive of its first occupied index, in ring order from s,
// that has one.
func firstLive(occ *[wheelWords]uint64, s int, minLive func(i int) (Time, bool)) Time {
	for k := 0; k < wheelBuckets; {
		i := firstSet(occ, (s+k)&wheelMask)
		if i < 0 || (i-s)&wheelMask < k {
			break // wrapped round to s
		}
		if at, ok := minLive(i); ok {
			return at
		}
		k = (i-s)&wheelMask + 1
	}
	panic("sim: calendar live count out of sync")
}

// bucketMin returns the earliest live time in bucket b's undrained part.
func (q *calQueue) bucketMin(b int) (best Time, found bool) {
	bk := &q.buckets[b]
	for _, ev := range bk.items[bk.head:] {
		if ev.kind != evDead && (!found || ev.at < best) {
			best, found = ev.at, true
		}
	}
	return best, found
}

// slotMin returns the earliest live time in ring slot s.
func (q *calQueue) slotMin(s int) (best Time, found bool) {
	for ev := q.ring.slots[s]; ev != nil; ev = ev.next {
		if ev.kind != evDead && (!found || ev.at < best) {
			best, found = ev.at, true
		}
	}
	return best, found
}

// cancel removes a pending event: heap events are cut out of the overflow
// immediately; bucket and slot events are tombstoned in place (excluded
// from live counts at once, recycled when a drain or cascade sweeps past
// them).
func (q *calQueue) cancel(ev *timedEvent) {
	switch ev.idx {
	case evIdxNone:
		return
	case evIdxBucket:
		q.wheelLive--
	case evIdxSlot:
		q.ringLive--
	default:
		q.overflow.remove(int(ev.idx))
		ev.gen++
		q.pool.put(ev)
		return
	}
	ev.kind = evDead
	ev.fn = nil
	ev.proc = nil
	ev.gen++
}

func (q *calQueue) resetBucket(b int, bk *calBucket) {
	bk.items = bk.items[:0]
	bk.head = 0
	bk.sorted = false
	q.occupied[b>>6] &^= 1 << (b & 63)
}

// firstSet returns the first set bit of a 256-bit occupancy bitmap in ring
// order from index s — s's word from s on, the other words, then s's word
// below s — or -1 when none is set. The scan is over four words however
// sparse the ring is.
func firstSet(occ *[wheelWords]uint64, s int) int {
	w, bit := s>>6, uint(s&63)
	if m := occ[w] &^ (1<<bit - 1); m != 0 {
		return w<<6 + bits.TrailingZeros64(m)
	}
	for i := 1; i < wheelWords; i++ {
		ww := (w + i) & (wheelWords - 1)
		if m := occ[ww]; m != 0 {
			return ww<<6 + bits.TrailingZeros64(m)
		}
	}
	if m := occ[w] & (1<<bit - 1); m != 0 {
		return w<<6 + bits.TrailingZeros64(m)
	}
	return -1
}
