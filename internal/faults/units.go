package faults

import "fmt"

// Units is the fault bookkeeping of a backend's individually failable
// units — GPFS NSD servers, Lustre OSSes, VAST CNodes and DBoxes,
// node-local NVMe and UnifyFS nodes. It holds which units are out of
// service, how far each failed unit is rebuilt and how many are healthy;
// the backend turns a state change into capacity (see Fraction).
type Units struct {
	owner, noun string // panic text: "<owner>: no <noun> 3"
	failed      []bool
	rebuilt     []float64
	healthy     int
}

// NewUnits returns n healthy units. owner names the deployment ("gpfs
// gpfs-lassen") and noun one unit ("NSD server") in panic messages.
func NewUnits(n int, owner, noun string) Units {
	return Units{owner: owner, noun: noun, failed: make([]bool, n), rebuilt: make([]float64, n), healthy: n}
}

// Add appends one healthy unit (a node-local backend grows one per mount).
func (u *Units) Add() {
	u.failed = append(u.failed, false)
	u.rebuilt = append(u.rebuilt, 0)
	u.healthy++
}

// Len returns the number of units.
func (u *Units) Len() int { return len(u.failed) }

// Healthy returns the number of units in service.
func (u *Units) Healthy() int { return u.healthy }

// Failed reports whether unit i is out of service.
func (u *Units) Failed(i int) bool { return u.failed[i] }

// Fail takes unit i out of service with nothing of it rebuilt and reports
// whether its state changed: failing a failed unit is a no-op. An index
// out of range panics, and so does failing the last healthy unit (the
// deployment would be down, which no experiment models).
func (u *Units) Fail(i int) bool {
	if i < 0 || i >= len(u.failed) {
		panic(fmt.Sprintf("%s: no %s %d", u.owner, u.noun, i))
	}
	if u.failed[i] {
		return false
	}
	if u.healthy == 1 {
		panic(fmt.Sprintf("%s: cannot fail the last healthy %s", u.owner, u.noun))
	}
	u.failed[i] = true
	u.rebuilt[i] = 0
	u.healthy--
	return true
}

// Recover returns failed unit i to service and reports whether its state
// changed: recovering a healthy or absent unit is a no-op.
func (u *Units) Recover(i int) bool {
	if i < 0 || i >= len(u.failed) || !u.failed[i] {
		return false
	}
	u.failed[i] = false
	u.healthy++
	return true
}

// SetRebuilt counts failed unit i as fraction frac reconstructed and
// reports whether its state changed: a healthy or absent unit has nothing
// to rebuild.
func (u *Units) SetRebuilt(i int, frac float64) bool {
	if i < 0 || i >= len(u.failed) || !u.failed[i] {
		return false
	}
	u.rebuilt[i] = frac
	return true
}

// Fraction is the units' effective share of the pooled capacity: whole
// healthy units plus the rebuilt fractions of failed ones, over all units.
// With nothing failed the sum is exactly the unit count, so fail/recover
// pairs restore the bit-identical nominal fraction 1.
func (u *Units) Fraction() float64 {
	sum := float64(u.healthy)
	for i, f := range u.failed {
		if f {
			sum += u.rebuilt[i]
		}
	}
	return sum / float64(len(u.failed))
}
