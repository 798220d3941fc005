package experiments

import (
	"testing"
)

// TestResilienceChaosStorm is the resilience half of the chaos tests:
// three seeded storms against the VAST deployment with the full client policy stack armed, zero
// invariant violations — deadline cancellation and breaker shedding must
// never over-allocate bandwidth or strand a rebuild.
func TestResilienceChaosStorm(t *testing.T) {
	var breakerEngaged, deadlineMissed bool
	for _, seed := range chaosSmokeSeeds {
		rep, err := RunResilienceChaosStorm(VAST, seed, Options{Quick: true})
		if err != nil {
			t.Fatalf("seed %#x: %v", seed, err)
		}
		if len(rep.Violations) != 0 {
			t.Errorf("seed %#x: %d invariant violation(s): %s",
				seed, len(rep.Violations), rep.Violations[0])
		}
		if rep.Delivered == 0 {
			t.Errorf("seed %#x: storm delivered no events", seed)
		}
		for _, tr := range rep.Traffic.Tenants {
			if tr.Completed == 0 {
				t.Errorf("seed %#x: tenant %s completed nothing", seed, tr.Name)
			}
			if sum := tr.ShedAdmission + tr.ShedBrownout + tr.ShedBreaker + tr.DeadlineMiss; sum != tr.Shed {
				t.Errorf("seed %#x: tenant %s shed split %d != %d", seed, tr.Name, sum, tr.Shed)
			}
			breakerEngaged = breakerEngaged || tr.Breaker.Opens > 0
			deadlineMissed = deadlineMissed || tr.DeadlineMiss > 0
		}
	}
	// The gate is only meaningful if the storms actually stress the layer:
	// across the three seeds, deadlines must have missed and at least one
	// breaker must have tripped.
	if !deadlineMissed {
		t.Error("no seed produced a deadline miss — storms not stressing the layer")
	}
	if !breakerEngaged {
		t.Error("no seed tripped a breaker — storms not stressing the layer")
	}
}

// TestResilienceChaosStormDeterministic replays one resilient storm and
// demands a byte-identical digest — cancellations, hedge races, jittered
// backoffs and breaker transitions are all part of the deterministic
// schedule.
func TestResilienceChaosStormDeterministic(t *testing.T) {
	a, err := RunResilienceChaosStorm(VAST, chaosSmokeSeeds[0], Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunResilienceChaosStorm(VAST, chaosSmokeSeeds[0], Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest() != b.Digest() {
		t.Fatalf("resilient storm not deterministic:\n a: %s\n b: %s", a.Digest(), b.Digest())
	}
}
