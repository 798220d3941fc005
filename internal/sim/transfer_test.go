package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
)

// transferTwoParks is TransferAfter as a process ran it before the kernel
// took the stages over: the process sleeps through the delay and the path's
// latency, waking at the end of each, and starts its flow itself.
// TestTransferAfterMatchesTwoParks holds the two to one schedule.
func transferTwoParks(f *Fabric, p *Proc, delay Duration, pipes []*Pipe, bytes, rateCap float64) {
	p.Sleep(delay)
	if bytes <= 0 || p.Aborted() {
		return
	}
	if lat := PathLatency(pipes); lat > 0 {
		p.Sleep(lat)
		if p.Aborted() {
			return
		}
	}
	fl := f.startFlow(pipes, bytes, rateCap, p.flowTag, true)
	p.abort.onFireFlow(f, fl)
	fl.done.Wait(p)
}

// transferModel runs a seeded model of tagged processes doing transfers
// with and without delays over pipes with and without latency, some of
// them aborted at random instants, through the given transfer function. It
// returns each transfer's return instant and the sequence number then
// reached, the per-tag byte counts, and the resume and transfer counts.
func transferModel(seed int64, transfer func(f *Fabric, p *Proc, delay Duration, pipes []*Pipe, bytes, rateCap float64)) (log []string, resumes, transfers int) {
	rng := rand.New(rand.NewSource(seed))
	e := NewEnv()
	fab := NewFabric(e)
	pipes := []*Pipe{
		fab.NewPipe("nic", 1e9, 0),
		fab.NewPipe("wan", 4e9, 700),
		fab.NewPipe("disk", 2e9, 300),
	}
	for i := 0; i < 12; i++ {
		name := fmt.Sprintf("p%d", i)
		tag := e.InternTag(fmt.Sprintf("t%d", i%3))
		ops := make([]func(p *Proc), 6)
		for j := range ops {
			delay := Duration(rng.Intn(3) * 500)
			path := []*Pipe{pipes[rng.Intn(3)]}
			if rng.Intn(2) == 0 {
				path = append(path, pipes[rng.Intn(3)])
			}
			bytes := float64(rng.Intn(4) * 1000)
			var ab *Abort
			if rng.Intn(3) == 0 {
				ab = NewAbort()
				e.Schedule(Time(rng.Intn(20000)), ab.Fire)
			}
			transfers++
			ops[j] = func(p *Proc) {
				p.SetAbort(ab)
				transfer(fab, p, delay, path, bytes, 0)
				log = append(log, fmt.Sprintf("%s op%d end=%d seq=%d", name, j, e.now, e.seq))
			}
		}
		start := Time(rng.Intn(2000))
		e.Schedule(start, func() {
			e.Go(name, func(p *Proc) {
				p.SetFlowTagID(tag)
				for _, op := range ops {
					op(p)
				}
			})
		})
	}
	e.Run()
	for i := 0; i < 3; i++ {
		tag := fmt.Sprintf("t%d", i)
		log = append(log, fmt.Sprintf("%s bytes=%.6f", tag, fab.TagBytes(tag)))
	}
	return log, e.resumes, transfers
}

// TestTransferAfterMatchesTwoParks: transferModel gives the same return
// instants, sequence numbers and tagged byte counts through TransferAfter
// as through transferTwoParks, while TransferAfter resumes the processes
// at most once per transfer.
func TestTransferAfterMatchesTwoParks(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		want, oldResumes, _ := transferModel(seed, transferTwoParks)
		got, resumes, transfers := transferModel(seed, (*Fabric).TransferAfter)
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: schedules differ\nTransferAfter:\n%s\ntwo parks:\n%s",
				seed, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
		if resumes > transfers || resumes >= oldResumes {
			t.Fatalf("seed %d: %d resumes for %d transfers (two parks: %d)", seed, resumes, transfers, oldResumes)
		}
	}
}

// TestTransferRecordsAcrossEnvs: Envs running on several goroutines at once
// share the pool of idle transfer records (pendingPool), and each run's
// schedule is the model's schedule run alone.
func TestTransferRecordsAcrossEnvs(t *testing.T) {
	want, _, _ := transferModel(7, (*Fabric).TransferAfter)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if got, _, _ := transferModel(7, (*Fabric).TransferAfter); !slices.Equal(got, want) {
					t.Errorf("a concurrent run's schedule differs from the run alone")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestTransferResumesOnce: a process doing N transfers is resumed N times,
// with or without a delay and path latency; the two-park form needs 3N.
func TestTransferResumesOnce(t *testing.T) {
	const n = 50
	for _, delay := range []Duration{0, 100} {
		e := NewEnv()
		fab := NewFabric(e)
		path := []*Pipe{fab.NewPipe("link", 1e9, 200), fab.NewPipe("disk", 1e9, 0)}
		e.Go("client", func(p *Proc) {
			for i := 0; i < n; i++ {
				fab.TransferAfter(p, delay, path, 1e3, 0)
			}
		})
		e.Run()
		if e.resumes != n {
			t.Errorf("delay %v: %d transfers resumed the process %d times, want %d", delay, n, e.resumes, n)
		}
	}
}

// TestTransferAfterAborts: a token that fires during the delay or the
// latency stage ends the transfer at that stage's instant, with no flow
// started and no bytes attributed; one that fires mid-flow ends it at the
// abort. Each is one resume.
func TestTransferAfterAborts(t *testing.T) {
	const (
		delay   = Duration(20_000)
		latency = Duration(10_000)
		start   = Time(delay + latency)
	)
	for _, tc := range []struct {
		name    string
		fireAt  Time // 0: never
		wantEnd Time
		started bool
	}{
		{"during delay", 5_000, Time(delay), false},
		{"during latency", 25_000, start, false},
		{"mid-flow", 530_000, 530_000, true},
		{"never", 0, start + 1_000_000, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEnv()
			fab := NewFabric(e)
			link := fab.NewPipe("link", 1e9, latency)
			ab := NewAbort()
			var end Time
			e.Go("client", func(p *Proc) {
				p.SetFlowTag("tenant")
				p.SetAbort(ab)
				fab.TransferAfter(p, delay, []*Pipe{link}, 1e6, 0)
				end = p.Now()
			})
			if tc.fireAt > 0 {
				e.Schedule(tc.fireAt, ab.Fire)
			}
			e.Run()
			if end != tc.wantEnd {
				t.Errorf("returned at %d, want %d", end, tc.wantEnd)
			}
			if got := fab.flowSeq > 0; got != tc.started {
				t.Errorf("flow started: %v, want %v", got, tc.started)
			}
			wantBytes := float64(end-start) * 1e9 / 1e9
			if !tc.started {
				wantBytes = 0
			}
			if got := fab.TagBytes("tenant"); !approx(got, wantBytes, 1e-6) {
				t.Errorf("tenant moved %.1f bytes, want %.1f", got, wantBytes)
			}
			if fab.liveFlows != 0 || len(e.blocked) != 0 || e.resumes != 1 {
				t.Errorf("after the run: %d live flows, %d blocked, %d resumes (want 0, 0, 1)",
					fab.liveFlows, len(e.blocked), e.resumes)
			}
		})
	}
}

// TestTransferAfterShutdown: Shutdown unwinds processes parked in either
// stage of a transfer in calendar order, then the one waiting on its flow,
// running each one's deferred calls.
func TestTransferAfterShutdown(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEnv()
	fab := NewFabric(e)
	link := fab.NewPipe("link", 1e9, 300)
	var unwound []string
	transfer := func(name string, delay Duration) {
		e.Go(name, func(p *Proc) {
			defer func() { unwound = append(unwound, name) }()
			fab.TransferAfter(p, delay, []*Pipe{link}, 1e9, 0)
			t.Errorf("%s returned from its transfer", name)
		})
	}
	transfer("flow", 0)      // flow started at 300
	transfer("delay", 1_000) // delay stage until 1000
	transfer("latency", 500) // latency stage from 500 until 800
	e.RunUntil(600)
	if got := e.blockedReport(); !slices.Equal(got, []string{"flow (event)"}) {
		t.Errorf("deadlock list %v, want only the process waiting on its flow", got)
	}
	e.Shutdown()
	if want := []string{"latency", "delay", "flow"}; !slices.Equal(unwound, want) {
		t.Errorf("unwound %v, want %v", unwound, want)
	}
	settleGoroutines(t, base)
}

// TestTransferAfterDeadlockReport: a process whose flow the kernel started
// in-line is on the deadlock list as a waiter on an event, and leaves it
// when the flow completes.
func TestTransferAfterDeadlockReport(t *testing.T) {
	e := NewEnv()
	fab := NewFabric(e)
	link := fab.NewPipe("link", 1e9, 0)
	e.Go("client", func(p *Proc) { fab.TransferAfter(p, 100, []*Pipe{link}, 1e3, 0) })
	e.RunUntil(50)
	if len(e.blocked) != 0 {
		t.Fatalf("a process in its delay stage is on the deadlock list: %v", e.blockedReport())
	}
	e.RunUntil(150)
	if got := e.blockedReport(); !slices.Equal(got, []string{"client (event)"}) {
		t.Fatalf("deadlock list %v, want [client (event)]", got)
	}
	e.Run()
	if len(e.blocked) != 0 {
		t.Fatalf("deadlock list %v after the flow completed", e.blockedReport())
	}
}

// TestTransferStartPanicSurfacesAtRun: the kernel starts a pending flow on
// whichever goroutine drains the calendar, so a panic there (a path with no
// pipes) must surface at the Run caller, from a worker as from main.
func TestTransferStartPanicSurfacesAtRun(t *testing.T) {
	for _, onMain := range []bool{false, true} {
		t.Run(fmt.Sprintf("main=%v", onMain), func(t *testing.T) {
			e := NewEnv()
			fab := NewFabric(e)
			e.Go("client", func(p *Proc) { fab.TransferAfter(p, 100, nil, 1e3, 0) })
			if onMain {
				// The client's worker stops at the deadline; Run's goroutine
				// pops the pending stage.
				e.RunUntil(50)
			}
			defer func() {
				if r := fmt.Sprint(recover()); !strings.Contains(r, "flow must cross at least one pipe") {
					t.Fatalf("recovered %q, want the empty-path panic", r)
				}
			}()
			e.Run()
		})
	}
}
