package device

import (
	"fmt"
	"math"
	"testing"
	"time"

	"storagesim/internal/sim"
	"storagesim/internal/units"
)

func approx(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol*want
}

func testSpec() Spec {
	return Spec{
		Name:         "test",
		ReadBW:       1e9,
		WriteBW:      5e8,
		ReadLatency:  100 * time.Microsecond,
		WriteLatency: 50 * time.Microsecond,
		SeekPenalty:  5 * time.Millisecond,
		FlushLatency: time.Millisecond,
		QueueDepth:   4,
	}
}

func TestSpecValidate(t *testing.T) {
	s := testSpec()
	if err := s.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := []func(*Spec){
		func(s *Spec) { s.Name = "" },
		func(s *Spec) { s.ReadBW = 0 },
		func(s *Spec) { s.WriteBW = -1 },
		func(s *Spec) { s.ReadLatency = -time.Second },
		func(s *Spec) { s.QueueDepth = 0 },
	}
	for i, mutate := range bad {
		s := testSpec()
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

func TestScale(t *testing.T) {
	s := testSpec().Scale(10, "raid")
	if s.Name != "raid" || s.ReadBW != 1e10 || s.WriteBW != 5e9 || s.QueueDepth != 40 {
		t.Fatalf("scaled = %+v", s)
	}
	if s.ReadLatency != testSpec().ReadLatency {
		t.Fatal("scaling must not change latency")
	}
}

func TestOpLevelSequentialRead(t *testing.T) {
	e := sim.NewEnv()
	fab := sim.NewFabric(e)
	d := MustNew(e, fab, testSpec())
	var end sim.Time
	e.Go("r", func(p *sim.Proc) {
		// 10 sequential 1 MiB reads: each pays 100us + 1MiB/1GB/s.
		for i := int64(0); i < 10; i++ {
			d.Read(p, 1, i*1048576, 1048576)
		}
		end = p.Now()
	})
	e.Run()
	perOp := 100e-6 + 1048576/1e9
	want := 10 * perOp
	if !approx(sim.Duration(end).Seconds(), want, 1e-3) {
		t.Fatalf("10 seq reads took %v, want %.6fs", sim.Duration(end), want)
	}
	if d.Seeks() != 0 {
		t.Fatalf("sequential stream counted %d seeks", d.Seeks())
	}
}

func TestOpLevelRandomPaysSeek(t *testing.T) {
	e := sim.NewEnv()
	fab := sim.NewFabric(e)
	d := MustNew(e, fab, testSpec())
	var seqEnd, randEnd sim.Duration
	run := func(offsets []int64) sim.Duration {
		e := sim.NewEnv()
		fab := sim.NewFabric(e)
		d = MustNew(e, fab, testSpec())
		var end sim.Time
		e.Go("r", func(p *sim.Proc) {
			for _, off := range offsets {
				d.Read(p, 1, off, 1048576)
			}
			end = p.Now()
		})
		e.Run()
		return sim.Duration(end)
	}
	seq := []int64{0, 1048576, 2097152, 3145728}
	rnd := []int64{0, 99 * 1048576, 7 * 1048576, 55 * 1048576}
	seqEnd, randEnd = run(seq), run(rnd)
	// Random pays 3 extra seeks of 5ms (first op of both runs seeks or not
	// identically: offset 0 matches the initial expected offset 0).
	extra := (randEnd - seqEnd).Seconds()
	if !approx(extra, 3*5e-3, 0.01) {
		t.Fatalf("random extra cost = %v, want ~15ms", randEnd-seqEnd)
	}
	if d.Seeks() != 3 {
		t.Fatalf("seeks = %d, want 3", d.Seeks())
	}
}

func TestQueueDepthLimitsConcurrency(t *testing.T) {
	// 8 concurrent 1-byte ops on a QD=4 device with 1ms latency take 2ms,
	// not 1ms.
	spec := testSpec()
	spec.ReadLatency = time.Millisecond
	e := sim.NewEnv()
	fab := sim.NewFabric(e)
	d := MustNew(e, fab, spec)
	var last sim.Time
	for i := 0; i < 8; i++ {
		i := i
		e.Go(fmt.Sprintf("r%d", i), func(p *sim.Proc) {
			d.Read(p, uint64(i), 0, 1)
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	e.Run()
	got := sim.Duration(last).Seconds()
	if got < 2e-3 || got > 2.2e-3 {
		t.Fatalf("8 ops on QD4 took %v, want ~2ms", sim.Duration(last))
	}
}

func TestFlush(t *testing.T) {
	e := sim.NewEnv()
	fab := sim.NewFabric(e)
	d := MustNew(e, fab, testSpec())
	var end sim.Time
	e.Go("f", func(p *sim.Proc) {
		d.Flush(p)
		end = p.Now()
	})
	e.Run()
	if sim.Duration(end) != time.Millisecond {
		t.Fatalf("flush took %v, want 1ms", sim.Duration(end))
	}
}

func TestEffectiveBWSequentialNearMedia(t *testing.T) {
	e := sim.NewEnv()
	fab := sim.NewFabric(e)
	d := MustNew(e, fab, testSpec())
	eff := d.EffectiveBW(Sequential, false, 1048576)
	if eff < 0.95e9 {
		t.Fatalf("seq effective = %v, want near 1 GB/s", units.BPS(eff))
	}
}

func TestEffectiveBWRandomCollapsesOnSeeky(t *testing.T) {
	e := sim.NewEnv()
	fab := sim.NewFabric(e)
	d := MustNew(e, fab, SASHDDSpec("hdd"))
	seq := d.EffectiveBW(Sequential, false, 1048576)
	rnd := d.EffectiveBW(Random, false, 1048576)
	if rnd >= seq {
		t.Fatalf("random (%v) not slower than sequential (%v)", units.BPS(rnd), units.BPS(seq))
	}
	drop := 1 - rnd/seq
	if drop < 0.2 {
		t.Fatalf("HDD random drop = %.0f%%, want substantial", drop*100)
	}
}

func TestEffectiveBWRandomNearSeqOnFlash(t *testing.T) {
	e := sim.NewEnv()
	fab := sim.NewFabric(e)
	d := MustNew(e, fab, QLCSpec("qlc"))
	seq := d.EffectiveBW(Sequential, false, 1048576)
	rnd := d.EffectiveBW(Random, false, 1048576)
	if rnd < 0.9*seq {
		t.Fatalf("flash random %v much slower than seq %v", units.BPS(rnd), units.BPS(seq))
	}
}

func TestStreamReadUsesServicePipeForRandom(t *testing.T) {
	e := sim.NewEnv()
	fab := sim.NewFabric(e)
	d := MustNew(e, fab, SASHDDSpec("hdd"))
	const ioSize = 1048576
	eff := d.EffectiveBW(Random, false, ioSize)
	bytes := eff * 2 // should take ~2s at effective bandwidth
	var end sim.Time
	e.Go("s", func(p *sim.Proc) {
		d.StreamRead(p, Random, ioSize, bytes, nil, 0)
		end = p.Now()
	})
	e.Run()
	if !approx(sim.Duration(end).Seconds(), 2.0, 0.01) {
		t.Fatalf("random stream took %v, want ~2s", sim.Duration(end))
	}
}

func TestStreamConcurrentRandomSharesEffectiveBW(t *testing.T) {
	// 4 concurrent random streams on one HDD must share the random
	// effective bandwidth, not each get it.
	e := sim.NewEnv()
	fab := sim.NewFabric(e)
	d := MustNew(e, fab, SASHDDSpec("hdd"))
	const ioSize = 1048576
	eff := d.EffectiveBW(Random, false, ioSize)
	per := eff / 2 // each stream is eff/2 bytes; 4 streams = 2*eff total -> 2s
	var last sim.Time
	for i := 0; i < 4; i++ {
		e.Go(fmt.Sprintf("s%d", i), func(p *sim.Proc) {
			d.StreamRead(p, Random, ioSize, per, nil, 0)
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	e.Run()
	if !approx(sim.Duration(last).Seconds(), 2.0, 0.01) {
		t.Fatalf("4 random streams took %v, want ~2s", sim.Duration(last))
	}
}

func TestStreamSequentialGetsMediaBW(t *testing.T) {
	e := sim.NewEnv()
	fab := sim.NewFabric(e)
	d := MustNew(e, fab, QLCSpec("qlc"))
	var end sim.Time
	e.Go("s", func(p *sim.Proc) {
		d.StreamRead(p, Sequential, 1048576, 3.2e9, nil, 0) // 1s at media bw
		end = p.Now()
	})
	e.Run()
	if !approx(sim.Duration(end).Seconds(), 1.0, 0.02) {
		t.Fatalf("seq stream took %v, want ~1s", sim.Duration(end))
	}
}

func TestPresetsValid(t *testing.T) {
	for _, s := range []Spec{
		SCMSpec("scm"), QLCSpec("qlc"), SASHDDSpec("hdd"),
		NVMe970ProSpec("nvme"),
	} {
		if err := s.Validate(); err != nil {
			t.Errorf("preset %s invalid: %v", s.Name, err)
		}
	}
}

func TestPresetRelationships(t *testing.T) {
	// Relationships the models rely on: SCM has the lowest write latency;
	// QLC direct writes are slow; NVMe flush is expensive relative to SCM.
	scm, qlc, nvme := SCMSpec("scm"), QLCSpec("qlc"), NVMe970ProSpec("n")
	if scm.WriteLatency >= qlc.WriteLatency {
		t.Fatal("SCM must program faster than QLC")
	}
	if nvme.FlushLatency <= scm.FlushLatency {
		t.Fatal("consumer NVMe flush must cost more than PLP SCM")
	}
}
