package sim

import (
	"math"
	"math/rand"
	"testing"
)

// queueImpl is the behavioural surface shared by the production calendar
// queue and the reference heap, so the differential harness can drive both
// in lockstep.
type queueImpl interface {
	alloc() *timedEvent
	release(ev *timedEvent)
	live() int
	insert(ev *timedEvent)
	pop(limit Time) *timedEvent
	cancel(ev *timedEvent)
	nextAt() (Time, bool)
}

var (
	_ queueImpl = (*calQueue)(nil)
	_ queueImpl = (*refQueue)(nil)
)

// diffHandle tracks one pending event in both queues. Pointers alone cannot
// identify events (the pool recycles them), so the (at, seq) key and the
// generation snapshots say whether the handles are still current.
type diffHandle struct {
	at         Time
	seq        uint64
	cEv, rEv   *timedEvent
	cGen, rGen uint64
}

// diffQueues interprets ops as a schedule/cancel/pop program and runs it
// against the calendar queue and the reference heap simultaneously, failing
// on the first divergence in pop order, pop timing, or live counts. The op
// stream deliberately mixes same-instant bursts (delta 0), in-window timers,
// and far-future events beyond wheelSpan so every cascade and tombstone path
// gets exercised.
func diffQueues(t *testing.T, ops []byte) {
	t.Helper()
	c := &calQueue{}
	r := &refQueue{}
	var (
		now     Time
		seq     uint64
		pending []diffHandle
	)

	schedule := func(delta Time) {
		seq++
		at := now + delta
		if at < now { // overflow guard for adversarial fuzz inputs
			at = now
		}
		cEv := c.alloc()
		rEv := r.alloc()
		for _, ev := range [2]*timedEvent{cEv, rEv} {
			ev.at = at
			ev.seq = seq
			ev.kind = evFn
		}
		h := diffHandle{at: at, seq: seq, cEv: cEv, rEv: rEv, cGen: cEv.gen, rGen: rEv.gen}
		c.insert(cEv)
		r.insert(rEv)
		pending = append(pending, h)
	}

	popOne := func(limit Time) bool {
		cEv := c.pop(limit)
		rEv := r.pop(limit)
		if (cEv == nil) != (rEv == nil) {
			t.Fatalf("pop(limit=%d) divergence: cal=%v ref=%v", limit, cEv, rEv)
		}
		if cEv == nil {
			return false
		}
		if cEv.at != rEv.at || cEv.seq != rEv.seq {
			t.Fatalf("pop order divergence: cal=(%d,%d) ref=(%d,%d)", cEv.at, cEv.seq, rEv.at, rEv.seq)
		}
		if cEv.at < now {
			t.Fatalf("pop went backwards: %d < now %d", cEv.at, now)
		}
		now = cEv.at
		for i := range pending {
			if pending[i].seq == cEv.seq {
				pending = append(pending[:i], pending[i+1:]...)
				break
			}
		}
		c.release(cEv)
		r.release(rEv)
		return true
	}

	for i := 0; i < len(ops); {
		op := ops[i]
		i++
		arg := func() Time {
			if i < len(ops) {
				v := Time(ops[i])
				i++
				return v
			}
			return 0
		}
		switch op % 4 {
		case 0: // near-future (or same-instant) schedule, lands in the wheel
			schedule(arg())
		case 1: // far-future schedule, lands in the overflow heap
			schedule(wheelSpan + arg()<<7)
		case 2: // cancel a pending event chosen by the next byte
			if len(pending) > 0 {
				h := pending[int(arg())%len(pending)]
				if h.cEv.gen != h.cGen || h.rEv.gen != h.rGen {
					t.Fatalf("handle (%d,%d) went stale while pending", h.at, h.seq)
				}
				c.cancel(h.cEv)
				r.cancel(h.rEv)
				for j := range pending {
					if pending[j].seq == h.seq {
						pending = append(pending[:j], pending[j+1:]...)
						break
					}
				}
			}
		default: // pop a few events under a bounded limit
			limit := now + arg()<<4
			n := int(arg()%4) + 1
			for j := 0; j < n; j++ {
				if !popOne(limit) {
					break
				}
			}
		}
		if c.live() != r.live() {
			t.Fatalf("live count divergence after op %d: cal=%d ref=%d", op%4, c.live(), r.live())
		}
		if c.live() != len(pending) {
			t.Fatalf("live count vs harness: cal=%d pending=%d", c.live(), len(pending))
		}
		cAt, cOK := c.nextAt()
		rAt, rOK := r.nextAt()
		if cAt != rAt || cOK != rOK {
			t.Fatalf("nextAt divergence after op %d: cal=(%d,%v) ref=(%d,%v)", op%4, cAt, cOK, rAt, rOK)
		}
	}

	// Drain completely; every remaining event must come out of both queues
	// in the same total order.
	for popOne(Time(math.MaxInt64)) {
	}
	if c.live() != 0 || r.live() != 0 || len(pending) != 0 {
		t.Fatalf("drain left residue: cal=%d ref=%d pending=%d", c.live(), r.live(), len(pending))
	}
}

// FuzzWheelVsHeap feeds coverage-guided op programs through the differential
// harness. Run via `make fuzz-smoke`.
func FuzzWheelVsHeap(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 3, 255, 3}) // same-instant burst then drain
	f.Add([]byte{1, 200, 1, 200, 1, 1, 3, 255, 3, 0, 10, 3, 255, 3})
	f.Add([]byte{0, 5, 1, 9, 2, 0, 0, 5, 2, 1, 3, 40, 2})
	f.Add([]byte{1, 0, 1, 0, 1, 0, 2, 1, 3, 255, 3, 3, 255, 3})
	f.Fuzz(func(t *testing.T, ops []byte) {
		diffQueues(t, ops)
	})
}

// TestWheelVsHeapRandom runs the differential harness over fixed-seed random
// programs, so the equivalence check runs on every plain `go test` even
// without the fuzzing engine.
func TestWheelVsHeapRandom(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 2048)
		rng.Read(ops)
		diffQueues(t, ops)
	}
}

// TestNextAtScansRingFromBase pins nextAt's ring order when the window
// base sits mid-word in the occupancy bitmap: a bucket below the base in
// the same word holds the window's latest times, so it must be scanned
// last, after every bucket from the base on.
func TestNextAtScansRingFromBase(t *testing.T) {
	q := &calQueue{base: 10 << wheelBucketShift}
	near := Time(13 << wheelBucketShift)
	wrapped := Time((10 + 250) << wheelBucketShift) // bucket 4 of the ring
	for _, at := range []Time{wrapped, near} {
		ev := q.alloc()
		ev.at, ev.kind = at, evFn
		q.insert(ev)
	}
	if at, ok := q.nextAt(); !ok || at != near {
		t.Fatalf("nextAt = %d, %v; want %d", at, ok, near)
	}
}

// TestWheelCascadePreservesFIFO pins the subtlest ordering obligation: a
// burst of same-timestamp events that overflow past the wheel window must
// still fire in scheduling order after they cascade from the heap into a
// bucket.
func TestWheelCascadePreservesFIFO(t *testing.T) {
	e := NewEnv()
	far := Time(10 * wheelSpan) // well beyond the initial window
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(far, func() { got = append(got, i) })
	}
	// A second cohort one bucket later, interleaved in schedule order too.
	for i := 100; i < 150; i++ {
		i := i
		e.Schedule(far+64, func() { got = append(got, i) })
	}
	e.Run()
	if len(got) != 150 {
		t.Fatalf("fired %d of 150 events", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("event %d fired at position %d: cascade broke FIFO", v, i)
		}
	}
}

// TestRunUntilThenNearSchedule guards the window-rebase rule: a RunUntil
// deadline that stops short of a far-future event must not slide the wheel
// window forward, or a subsequent schedule between the deadline and that
// event would land behind the window.
func TestRunUntilThenNearSchedule(t *testing.T) {
	e := NewEnv()
	var got []Time
	e.Schedule(1_000_000, func() { got = append(got, e.Now()) })
	e.RunUntil(500)
	if e.Now() != 500 {
		t.Fatalf("RunUntil stopped at %d, want 500", e.Now())
	}
	e.Schedule(600, func() { got = append(got, e.Now()) })
	e.Run()
	want := []Time{600, 1_000_000}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("fire order %v, want %v", got, want)
	}
}
