package sim

// refQueue is the reference scheduler: the seed's plain binary-heap
// calendar with the pooled-event lifecycle layered on top. It produces the
// identical (at, seq) pop order as calQueue and stays compiled
// unconditionally — the differential tests (wheel_test.go) drive both
// implementations in lockstep, and building with `-tags simreference` swaps
// it in as the Env's scheduler wholesale, which lets the whole test suite
// (goldens included) double as an end-to-end equivalence check.
type refQueue struct {
	h         eventHeap
	overflows int // every insert: the whole calendar is the heap
	pool      eventPool
}

func (q *refQueue) alloc() *timedEvent     { return q.pool.get() }
func (q *refQueue) release(ev *timedEvent) { q.pool.put(ev) }
func (q *refQueue) live() int              { return q.h.len() }

func (q *refQueue) insert(ev *timedEvent) {
	q.overflows++
	q.h.push(ev)
}

func (q *refQueue) nextAt() (Time, bool) {
	if q.h.len() == 0 {
		return 0, false
	}
	return q.h.peek().at, true
}

func (q *refQueue) pop(limit Time) *timedEvent {
	if q.h.len() == 0 || q.h.peek().at > limit {
		return nil
	}
	ev := q.h.pop()
	ev.gen++
	return ev
}

func (q *refQueue) cancel(ev *timedEvent) {
	if ev.idx < 0 {
		return
	}
	q.h.remove(int(ev.idx))
	ev.gen++
	q.pool.put(ev)
}
