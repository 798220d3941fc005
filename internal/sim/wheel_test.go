package sim

import (
	"math"
	"math/rand"
	"slices"
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
// events a few second-level slots out and events beyond the second level's
// reach, and pop limits from within a bucket to past the second level, so
// every cascade, heap pull and tombstone path gets exercised.
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
		switch op % 5 {
		case 0: // near-future (or same-instant) schedule, lands in the wheel
			schedule(arg())
		case 1: // past the wheel: the second level, or the wheel after a rebase
			// The low six bits scale 128 ns, 1 µs, 8 µs or 64 µs, as the
			// top two pick: up to 8 µs, 64 µs, 516 µs or 4.1 ms further.
			b := arg()
			schedule(wheelSpan + (b&63)<<(7+3*(b>>6)))
		case 4: // past the second level's reach: the overflow heap
			schedule(levelSpan + arg()<<15)
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
			// The low six bits scale 16 ns, 512 ns, 16 µs or 512 µs, as
			// the top two pick: the limit can stop within a bucket, a
			// slot or the second level's reach, or pass it.
			b := arg()
			limit := now + (b&63)<<(4+5*(b>>6))
			n := int(arg()%4) + 1
			for j := 0; j < n; j++ {
				if !popOne(limit) {
					break
				}
			}
		}
		if c.live() != r.live() {
			t.Fatalf("live count divergence after op %d: cal=%d ref=%d", op%5, c.live(), r.live())
		}
		if c.live() != len(pending) {
			t.Fatalf("live count vs harness: cal=%d pending=%d", c.live(), len(pending))
		}
		cAt, cOK := c.nextAt()
		rAt, rOK := r.nextAt()
		if cAt != rAt || cOK != rOK {
			t.Fatalf("nextAt divergence after op %d: cal=(%d,%v) ref=(%d,%v)", op%5, cAt, cOK, rAt, rOK)
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
	// Slot events at 22.8 µs, 36.9 µs and 47.1 µs: the rebase onto the
	// first lands mid-slot, so the window's end reaches into the next slot
	// and takes the second but not the third.
	f.Add([]byte{0, 200, 1, 50, 1, 84, 1, 94, 3, 255, 3, 3, 255, 3})
	// Cancel a slot's only live event (28.7 µs), a heap event behind it,
	// and pop under a 32.8 µs limit: the tombstone goes without moving the
	// window, so a near event and a new event at 28.7 µs, scheduled after
	// the nil pop, still fire in time order.
	f.Add([]byte{1, 76, 4, 1, 2, 0, 3, 130, 0, 0, 50, 1, 76, 3, 255, 3, 3, 255, 3})
	// A pop limit at 20.5 µs, between the slot's start (16.4 µs) and its
	// first event (28.7 µs), then schedules in the wheel and below the
	// event in its slot.
	f.Add([]byte{1, 76, 3, 104, 0, 0, 255, 1, 10, 3, 255, 3, 3, 255, 3})
	// Heap events the second level reaches as the window moves: two slot
	// events, heap events 4.19 ms and 4.72 ms out, pops to 4.19 ms (the
	// first rebase pulls in the one, the second the other), then a cancel
	// of the pulled-in event.
	f.Add([]byte{1, 50, 4, 0, 4, 16, 1, 3, 3, 200, 3, 2, 0, 3, 255, 3})
	// A heap event at 4.19 ms and a slot event at 53 µs: the rebase onto
	// the slot event must pull the heap event into the second level, ahead
	// of an event filed there next, at 4.198 ms.
	f.Add([]byte{4, 0, 1, 100, 3, 255, 0, 1, 255, 3, 255, 3, 3, 255, 3})
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

// TestNextAtScansRingFromBase pins nextAt's ring order on both levels
// when the window base's bucket (slot) sits mid-word in the occupancy
// bitmap: an index below the base's in the same word holds the level's
// latest times, so it must be scanned last, after every index from the
// base's on.
func TestNextAtScansRingFromBase(t *testing.T) {
	for _, tc := range []struct {
		name          string
		shift         uint // bucket or slot width
		near, wrapped Time // offsets from the base, in widths
	}{
		{"wheel", wheelBucketShift, 3, 250},
		{"second level", ringSlotShift, 3, 250}, // 3 and 250 slots out: past the wheel
	} {
		t.Run(tc.name, func(t *testing.T) {
			q := &calQueue{base: 10 << tc.shift}
			near := (10 + tc.near) << tc.shift
			wrapped := (10 + tc.wrapped) << tc.shift // index 4 of the ring
			for _, at := range []Time{wrapped, near} {
				ev := q.alloc()
				ev.at, ev.kind = at, evFn
				q.insert(ev)
			}
			if at, ok := q.nextAt(); !ok || at != near {
				t.Fatalf("nextAt = %d, %v; want %d", at, ok, near)
			}
		})
	}
}

// TestWheelCascadePreservesFIFO pins the subtlest ordering obligation: a
// burst of same-timestamp events filed past the wheel must still fire in
// scheduling order after it cascades into a bucket. The bursts sit at 1 ms
// (in the second level), 5 ms (in the heap until the first rebase pulls it
// into the second level) and 10 ms (in the heap until the window jumps
// there).
func TestWheelCascadePreservesFIFO(t *testing.T) {
	e := NewEnv()
	var got []int
	n := 0
	for _, far := range []Time{1_000_000, 5_000_000, 10_000_000} {
		for i := 0; i < 100; i++ {
			i := n
			n++
			e.Schedule(far, func() { got = append(got, i) })
		}
		// A second cohort one bucket later.
		for i := 0; i < 50; i++ {
			i := n
			n++
			e.Schedule(far+64, func() { got = append(got, i) })
		}
	}
	e.Run()
	if len(got) != n {
		t.Fatalf("fired %d of %d events", len(got), n)
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
// event would land behind the window. The far event waits in the heap or
// in a second-level slot; the deadline stops before the slot or inside it,
// before its first event; and a cancelled event's tombstone may sit in an
// earlier slot, which the stopped pop recycles without moving the window.
func TestRunUntilThenNearSchedule(t *testing.T) {
	for _, tc := range []struct {
		name      string
		far       Time
		cancelled Time // 0: none
		deadline  Time
		near      []Time
	}{
		{"heap", 10_000_000, 0, 500, []Time{600, 13_000}},
		{"slot", 100_000, 0, 500, []Time{600, 13_000}},
		{"deadline inside the slot", 100_000, 0, 99_000, []Time{99_500}},
		{"tombstone slot first", 100_000, 80_000, 60_000, []Time{60_100, 63_000, 70_000}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEnv()
			var got []Time
			record := func() { got = append(got, e.Now()) }
			e.Schedule(tc.far, record)
			if tc.cancelled != 0 {
				e.Schedule(tc.cancelled, record).Cancel()
			}
			e.RunUntil(tc.deadline)
			if e.Now() != tc.deadline {
				t.Fatalf("RunUntil stopped at %d, want %d", e.Now(), tc.deadline)
			}
			for _, at := range tc.near {
				e.Schedule(at, record)
			}
			e.Run()
			want := append(append([]Time(nil), tc.near...), tc.far)
			if !slices.Equal(got, want) {
				t.Fatalf("fire order %v, want %v", got, want)
			}
		})
	}
}

// TestOverflowsCountHeapInserts pins what Env.Overflows reads: the
// calendar queue counts only the events it files into its overflow heap,
// past the second level's reach, the reference queue every event, since
// it is all heap.
func TestOverflowsCountHeapInserts(t *testing.T) {
	c, r := &calQueue{}, &refQueue{}
	for _, at := range []Time{0, wheelSpan - 1, wheelSpan, levelSpan - 1, levelSpan, 10 * levelSpan} {
		for _, q := range []queueImpl{c, r} {
			ev := q.alloc()
			ev.at, ev.kind = at, evFn
			q.insert(ev)
		}
	}
	if c.overflows != 2 || r.overflows != 6 {
		t.Fatalf("overflows: calendar %d, reference %d; want 2 and 6", c.overflows, r.overflows)
	}
}

// TestScheduleAtEndOfTime checks that events in the last few milliseconds
// before the largest Time still fire, in order: the second level's reach
// past the window must not wrap round.
func TestScheduleAtEndOfTime(t *testing.T) {
	e := NewEnv()
	var got []Time
	record := func() { got = append(got, e.Now()) }
	end := Time(math.MaxInt64)
	want := []Time{end - 2*levelSpan, end - levelSpan/2, end - wheelSpan, end}
	for _, at := range []Time{end, end - wheelSpan, end - 2*levelSpan, end - levelSpan/2} {
		e.Schedule(at, record)
	}
	e.Run()
	if !slices.Equal(got, want) {
		t.Fatalf("fired at %v, want %v", got, want)
	}
}
