//go:build !simreference

package sim

import "testing"

// TestRingAllocatedOnFirstUse checks that the calendar's second level
// costs an Env nothing until an event lands past the wheel: a model whose
// events all fall within the first 16.4 µs never allocates it. Most
// Envs in the tests are such models, and a bucket array carried by every
// Env once took the package's tests from 0.2 s to 25 s.
func TestRingAllocatedOnFirstUse(t *testing.T) {
	e := NewEnv()
	for i := 0; i < 4; i++ {
		e.Go("sleeper", func(p *Proc) {
			for p.Now()+1000 < wheelSpan {
				p.Sleep(1000)
			}
		})
	}
	e.Run()
	if e.Now() < wheelSpan-1000 || e.Events() < 60 {
		t.Fatalf("ran to %d with %d events: the model moved", e.Now(), e.Events())
	}
	if e.q.ring != nil {
		t.Fatal("events within the wheel allocated the second level")
	}
	e.After(Duration(wheelSpan), func() {})
	if e.q.ring == nil {
		t.Fatal("an event past the wheel did not land in the second level")
	}
	e.Run()
}
