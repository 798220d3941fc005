package experiments

import (
	"fmt"
	"strings"
	"testing"
)

// chaosSmokeSeeds are the pinned storm seeds: every backend survives each
// storm with zero invariant violations, deterministically.
var chaosSmokeSeeds = []uint64{0x5eed1, 0x5eed2, 0x5eed3}

// TestChaosSmoke: three seeded storms per backend, full invariant suite,
// no violations. TestGolden/chaos_digests pins their digests.
func TestChaosSmoke(t *testing.T) {
	for _, fs := range ChaosBackends() {
		fs := fs
		t.Run(string(fs), func(t *testing.T) {
			for _, seed := range chaosSmokeSeeds {
				rep, err := RunChaosStorm(fs, seed, Options{Quick: true})
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
				if rep.WriteBW <= 0 {
					t.Errorf("seed %#x: foreground workload moved no bytes", seed)
				}
			}
		})
	}
}

// TestChaosStormDeterministic replays one storm per backend and demands a
// byte-identical report digest — the reproducibility half of the gate.
func TestChaosStormDeterministic(t *testing.T) {
	for _, fs := range ChaosBackends() {
		fs := fs
		t.Run(string(fs), func(t *testing.T) {
			a, err := RunChaosStorm(fs, chaosSmokeSeeds[0], Options{Quick: true})
			if err != nil {
				t.Fatal(err)
			}
			b, err := RunChaosStorm(fs, chaosSmokeSeeds[0], Options{Quick: true})
			if err != nil {
				t.Fatal(err)
			}
			if a.Digest() != b.Digest() {
				t.Errorf("same seed, different outcomes:\n  %s\n  %s", a.Digest(), b.Digest())
			}
		})
	}
}

// TestChaosLossAccountingOnUnprotectedBackends asserts the None-scheme
// deployments report losses when a storm takes a data-holding node down —
// never a silent clean result.
func TestChaosLossAccountingOnUnprotectedBackends(t *testing.T) {
	for _, fs := range []FS{UnifyFS, NVMe} {
		fs := fs
		t.Run(string(fs), func(t *testing.T) {
			sawLoss := false
			for _, seed := range chaosSmokeSeeds {
				rep, err := RunChaosStorm(fs, seed, Options{Quick: true})
				if err != nil {
					t.Fatal(err)
				}
				if rep.Rebuilds != 0 {
					t.Errorf("seed %#x: scheme-None backend ran %d rebuilds", seed, rep.Rebuilds)
				}
				if rep.Losses > 0 {
					sawLoss = true
					if rep.LostBytes < 0 {
						t.Errorf("seed %#x: negative lost bytes %g", seed, rep.LostBytes)
					}
				}
			}
			if !sawLoss {
				t.Errorf("no pinned seed produced a node loss on %s; pick seeds that exercise loss accounting", fs)
			}
		})
	}
}

// goldenChaosDigests renders the digest of every storm the chaos tests
// run: each backend at each pinned seed, the resilient VAST storms, and
// the two-rack sharded storm.
func goldenChaosDigests(t *testing.T) string {
	var b strings.Builder
	for _, fs := range ChaosBackends() {
		for _, seed := range chaosSmokeSeeds {
			rep, err := RunChaosStorm(fs, seed, Options{Quick: true})
			if err != nil {
				t.Fatalf("%s seed %#x: %v", fs, seed, err)
			}
			fmt.Fprintln(&b, rep.Digest())
		}
	}
	for _, seed := range chaosSmokeSeeds {
		rep, err := RunResilienceChaosStorm(VAST, seed, Options{Quick: true})
		if err != nil {
			t.Fatalf("resilient seed %#x: %v", seed, err)
		}
		fmt.Fprintln(&b, rep.Digest())
	}
	rep, err := RunShardedChaosStorm(VAST, 2, 0x5eed1, Options{Quick: true})
	if err != nil {
		t.Fatalf("sharded: %v", err)
	}
	fmt.Fprintln(&b, rep.Digest())
	return b.String()
}
