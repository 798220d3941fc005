package sim

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// Steps of a notifyModel actor.
const (
	stepWait  = iota // wait on a shared event
	stepSleep        // sleep (0 included: returns without parking)
	stepFire         // fire a shared event
	stepSpawn        // start a child actor
)

type notifyStep struct {
	op    int
	k     int // the event of a wait or fire
	d     Duration
	child *notifyActor
}

type notifyActor struct {
	name  string
	cont  bool // run as a continuation chain, not a process
	steps []notifyStep
}

// notifyModel runs a seeded model of actors that wait on shared events,
// sleep, fire events and spawn children, and logs the instant and the
// sequence number reached after every step. Every event also fires from a
// timer, so no waiter is stranded. Actors whose bit is set in conts run as
// continuations — started by a Schedule at the instant, waiting through
// Notify and sleeping through After — and the others as processes; a
// continuation takes the sequence numbers its process would have taken, so
// the log is the same for every mask.
func notifyModel(seed, conts uint64) []string {
	r := seed
	draw := func(n int) int {
		r = fuzzMix(r)
		return int(r % uint64(n))
	}
	e := NewEnv()
	evs := make([]*Event, 4)
	for k := range evs {
		evs[k] = NewEvent(e)
		e.Schedule(Time(draw(3000)), evs[k].Fire)
	}
	var log []string
	bit := 0
	var build func(name string, nsteps int, spawn bool) *notifyActor
	build = func(name string, nsteps int, spawn bool) *notifyActor {
		a := &notifyActor{name: name, cont: conts>>(bit%64)&1 == 1}
		bit++
		for j := 0; j < nsteps; j++ {
			s := notifyStep{op: draw(4), k: draw(len(evs))}
			switch s.op {
			case stepSleep:
				if draw(3) > 0 {
					s.d = Duration(1 + draw(400))
				}
			case stepSpawn:
				if !spawn {
					s.op = stepWait
					break
				}
				s.child = build(fmt.Sprintf("%s.c%d", name, j), 3, false)
			}
			a.steps = append(a.steps, s)
		}
		return a
	}
	var start func(a *notifyActor)
	logStep := func(a *notifyActor, j int) {
		log = append(log, fmt.Sprintf("%s step%d t=%d seq=%d", a.name, j, e.now, e.seq))
	}
	start = func(a *notifyActor) {
		if !a.cont {
			e.Go(a.name, func(p *Proc) {
				for j, s := range a.steps {
					switch s.op {
					case stepWait:
						evs[s.k].Wait(p)
					case stepSleep:
						p.Sleep(s.d)
					case stepFire:
						evs[s.k].Fire()
					case stepSpawn:
						start(s.child)
					}
					logStep(a, j)
				}
			})
			return
		}
		j := 0
		var run, resume func()
		run = func() {
			for ; j < len(a.steps); j++ {
				switch s := a.steps[j]; s.op {
				case stepWait:
					evs[s.k].Notify(resume)
					return
				case stepSleep:
					if s.d > 0 {
						e.After(s.d, resume)
						return
					}
				case stepFire:
					evs[s.k].Fire()
				case stepSpawn:
					start(s.child)
				}
				logStep(a, j)
			}
		}
		resume = func() {
			logStep(a, j)
			j++
			run()
		}
		e.Schedule(e.now, run)
	}
	for i := 0; i < 8; i++ {
		a := build(fmt.Sprintf("a%d", i), 6, true)
		e.Schedule(Time(draw(1500)), func() { start(a) })
	}
	e.Run()
	return append(log, fmt.Sprintf("end t=%d seq=%d", e.now, e.seq))
}

// TestNotifyMatchesWait: turning any set of notifyModel's actors into
// continuations leaves every step's instant and sequence number unchanged.
func TestNotifyMatchesWait(t *testing.T) {
	for seed := uint64(1); seed <= 30; seed++ {
		want := notifyModel(seed, 0)
		for _, mask := range []uint64{^uint64(0), 0x5555555555555555, fuzzMix(seed)} {
			if got := notifyModel(seed, mask); !slices.Equal(got, want) {
				t.Fatalf("seed %d mask %#x: schedules differ\ncontinuations:\n%s\nprocesses:\n%s",
					seed, mask, strings.Join(got, "\n"), strings.Join(want, "\n"))
			}
		}
	}
}

// FuzzNotifyVsWait is TestNotifyMatchesWait over fuzzed models and masks.
func FuzzNotifyVsWait(f *testing.F) {
	f.Add(uint64(1), ^uint64(0))
	f.Add(uint64(0x5eed), uint64(0x5555555555555555))
	f.Add(uint64(42), uint64(0xf0f0))
	f.Fuzz(func(t *testing.T, seed, mask uint64) {
		want := notifyModel(seed, 0)
		if got := notifyModel(seed, mask); !slices.Equal(got, want) {
			t.Fatalf("seed %d mask %#x: schedules differ\ncontinuations:\n%s\nprocesses:\n%s",
				seed, mask, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	})
}

// Notify on a fired event runs the continuation before it returns and
// files nothing, as Wait on a fired event returns without parking.
func TestNotifyFiredRunsInline(t *testing.T) {
	e := NewEnv()
	ev := NewEvent(e)
	ev.Fire()
	seq, ran := e.seq, false
	ev.Notify(func() { ran = true })
	if !ran || e.seq != seq || e.Pending() != 0 {
		t.Fatalf("ran %v, seq %d -> %d, %d pending: want inline, nothing filed", ran, seq, e.seq, e.Pending())
	}
}

// Resetting an event with a pending continuation would strand it.
func TestResetWithPendingNotifyPanics(t *testing.T) {
	e := NewEnv()
	ev := NewEvent(e)
	ev.Notify(func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("Reset with a pending continuation did not panic")
		}
	}()
	ev.Reset()
}

// Shutdown drops pending continuations: one filed by a Fire in an
// unwinding process's deferred call and one still waiting on an event
// never run.
func TestShutdownDropsContinuations(t *testing.T) {
	e := NewEnv()
	fired, waiting := NewEvent(e), NewEvent(e)
	ran := 0
	fired.Notify(func() { ran++ })
	waiting.Notify(func() { ran++ })
	e.Go("parked", func(p *Proc) {
		defer fired.Fire()
		p.Sleep(100)
	})
	e.RunUntil(15)
	e.Shutdown()
	if ran != 0 || !fired.Fired() || e.Pending() != 0 {
		t.Fatalf("%d continuations ran, fired %v, %d events pending after Shutdown; want 0, true, 0",
			ran, fired.Fired(), e.Pending())
	}
}
