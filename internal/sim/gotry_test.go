package sim

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// Steps of a gotryModel request.
const (
	stepTransfer = iota // a transfer, with or without delay, bytes and tag
	stepNap             // a sleep (0 included: returns without parking)
)

type gotryStep struct {
	op    int
	delay Duration
	path  []*Pipe
	bytes float64
	tag   FlowTag
}

// gotryModel runs a seeded model of requests that do transfers — tagged
// and untagged, with and without delay, some of zero bytes — and sleeps,
// over pipes with and without latency, and logs the instant and the
// sequence number reached after every step. Requests whose bit is set in
// conts are filed with GoTry: the attempt serves them with TransferThen
// and After continuations, or declines, changing nothing, when more
// requests are active than the request's threshold, and then the process
// serves them as Go's would. The others are Go processes using
// TransferAfter and Sleep. Either way every step takes the same sequence
// numbers, so the log is the same for every mask. It also returns the
// process starts.
func gotryModel(seed, conts uint64) (log []string, starts int) {
	r := seed
	draw := func(n int) int {
		r = fuzzMix(r)
		return int(r % uint64(n))
	}
	e := NewEnv()
	fab := NewFabric(e)
	pipes := []*Pipe{
		fab.NewPipe("nic", 1e9, 0),
		fab.NewPipe("wan", 4e9, 700),
		fab.NewPipe("disk", 2e9, 300),
	}
	tags := []FlowTag{0, e.InternTag("t1"), e.InternTag("t2")}
	active := 0
	logStep := func(name string, j int) {
		log = append(log, fmt.Sprintf("%s step%d t=%d seq=%d active=%d", name, j, e.now, e.seq, active))
	}
	for i := 0; i < 16; i++ {
		name := fmt.Sprintf("r%d", i)
		steps := make([]gotryStep, 1+draw(4))
		for j := range steps {
			s := &steps[j]
			s.op = draw(3) / 2 // transfers twice as often as naps
			s.delay = Duration(draw(3) * 400)
			s.path = []*Pipe{pipes[draw(3)]}
			if draw(2) == 0 {
				s.path = append(s.path, pipes[draw(3)])
			}
			s.bytes = float64(draw(4) * 1500)
			s.tag = tags[draw(3)]
		}
		threshold := 1 + draw(6)
		proc := func(p *Proc) {
			active++
			for j, s := range steps {
				switch s.op {
				case stepTransfer:
					p.SetFlowTagID(s.tag)
					fab.TransferAfter(p, s.delay, s.path, s.bytes, 0)
				case stepNap:
					p.Sleep(s.delay)
				}
				logStep(name, j)
			}
			active--
		}
		var step func(j int)
		step = func(j int) {
			if j == len(steps) {
				active--
				return
			}
			done := func() {
				logStep(name, j)
				step(j + 1)
			}
			switch s := steps[j]; s.op {
			case stepTransfer:
				fab.TransferThen(s.delay, s.path, s.bytes, 0, s.tag, done)
			case stepNap:
				if s.delay > 0 {
					e.After(s.delay, done)
				} else {
					done()
				}
			}
		}
		try := func() bool {
			if active >= threshold {
				return false
			}
			active++
			step(0)
			return true
		}
		cont := conts>>(i%64)&1 == 1
		e.Schedule(Time(draw(3000)), func() {
			if cont {
				e.GoTry(name, try, proc)
			} else {
				e.Go(name, proc)
			}
		})
	}
	e.Run()
	for _, tag := range []string{"", "t1", "t2"} {
		log = append(log, fmt.Sprintf("tag %q bytes=%.6f", tag, fab.TagBytes(tag)))
	}
	return append(log, fmt.Sprintf("end t=%d seq=%d events=%d", e.now, e.seq, e.Events())), e.Starts()
}

// TestGoTryMatchesGo: serving any set of gotryModel's requests through
// GoTry attempts and TransferThen leaves every step's instant and
// sequence number, and the bytes of every tag, unchanged; the attempts
// that serve start no process, and some decline.
func TestGoTryMatchesGo(t *testing.T) {
	declined := false
	for seed := uint64(1); seed <= 30; seed++ {
		want, procs := gotryModel(seed, 0)
		for _, mask := range []uint64{^uint64(0), 0x5555555555555555, fuzzMix(seed)} {
			got, starts := gotryModel(seed, mask)
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d mask %#x: schedules differ\nGoTry:\n%s\nGo:\n%s",
					seed, mask, strings.Join(got, "\n"), strings.Join(want, "\n"))
			}
			if mask == ^uint64(0) {
				if starts >= procs {
					t.Fatalf("seed %d: %d starts with every request attempted, %d without", seed, starts, procs)
				}
				declined = declined || starts > 0
			}
		}
	}
	if !declined {
		t.Fatal("no attempt declined: the fallback went untested")
	}
}

// FuzzGoTryVsGo is TestGoTryMatchesGo over fuzzed models and masks.
func FuzzGoTryVsGo(f *testing.F) {
	f.Add(uint64(1), ^uint64(0))
	f.Add(uint64(0x5eed), uint64(0x5555555555555555))
	f.Add(uint64(42), uint64(0xf0f0))
	f.Fuzz(func(t *testing.T, seed, mask uint64) {
		want, _ := gotryModel(seed, 0)
		if got, _ := gotryModel(seed, mask); !slices.Equal(got, want) {
			t.Fatalf("seed %d mask %#x: schedules differ\nGoTry:\n%s\nGo:\n%s",
				seed, mask, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	})
}

// An attempt that serves its work starts no process and moves none of
// the kernel's process counts; one that declines starts its process at
// the same pop, as Go would.
func TestGoTryCounts(t *testing.T) {
	e := NewEnv()
	ran := ""
	e.GoTry("served", func() bool { ran += "s"; return true }, func(*Proc) { ran += "S" })
	e.GoTry("declined", func() bool { ran += "d"; return false }, func(p *Proc) {
		ran += fmt.Sprintf("D@%d", p.Now())
	})
	e.Run()
	if ran != "sdD@0" || e.Starts() != 1 || e.Resumes() != 0 || e.Events() != 2 {
		t.Fatalf("ran %q, %d starts, %d resumes, %d events; want sdD@0, 1, 0, 2",
			ran, e.Starts(), e.Resumes(), e.Events())
	}
}

// A panic in an attempt surfaces at the Run caller with its value, from
// an attempt the Run caller pops and from one a process goroutine pops.
func TestGoTryPanicSurfacesAtRun(t *testing.T) {
	for _, onWorker := range []bool{false, true} {
		t.Run(fmt.Sprintf("worker=%v", onWorker), func(t *testing.T) {
			defer func() {
				if r := recover(); r != "boom" {
					t.Fatalf("recovered %v, want boom", r)
				}
			}()
			e := NewEnv()
			attempt := func() bool { panic("boom") }
			if !onWorker {
				e.GoTry("attempt", attempt, nil)
			} else {
				// The process files the attempt and parks, so its worker
				// goroutine pops and runs it.
				e.Go("filer", func(p *Proc) {
					e.GoTry("attempt", attempt, nil)
					p.Sleep(100)
				})
			}
			e.Run()
		})
	}
}

// Shutdown drops an attempt that has not run with its start event, and a
// TransferThen waiting out its delay or its path's latency with its stage
// event: neither the attempt, its process nor the continuation runs.
func TestShutdownDropsGoTryAndTransferThen(t *testing.T) {
	e := NewEnv()
	fab := NewFabric(e)
	pipe := fab.NewPipe("wan", 1e9, 50)
	ran := 0
	fab.TransferThen(100, []*Pipe{pipe}, 1000, 0, 0, func() { ran++ })
	e.Schedule(8, func() { fab.TransferThen(0, []*Pipe{pipe}, 1000, 0, 0, func() { ran++ }) })
	e.RunUntil(10)
	e.GoTry("late", func() bool { ran++; return true }, func(*Proc) { ran++ })
	e.Shutdown()
	if ran != 0 || e.Pending() != 0 || e.Starts() != 0 {
		t.Fatalf("%d ran, %d pending, %d starts after Shutdown; want 0, 0, 0", ran, e.Pending(), e.Starts())
	}
}
