package vast

import (
	"fmt"
	"time"

	"storagesim/internal/repair"
	"storagesim/internal/sim"
)

// DBox failure, degraded reads and redundancy declaration. Section III-A
// of the paper: VAST protects data with wide-stripe, locally-decodable
// erasure codes laid across the DBox enclosures, so the redundancy unit
// is the DBox, not the (stateless) CNode. Losing an enclosure costs its
// share of the CBox↔DBox fabric and of the SCM/QLC pools, and every read
// whose stripe is homed on the degraded enclosure pays a decode penalty —
// extra latency plus read amplification on the surviving QLC — until the
// rebuild reconstructs the enclosure's strips onto spare capacity.

// ecTolerance is the whole-DBox losses the stripe survives.
func (c *Config) ecTolerance() int {
	if c.ECParity > 0 {
		return c.ECParity
	}
	if c.DBoxes <= 2 {
		return c.DBoxes - 1
	}
	return 2
}

// stripeBytes is the EC stripe width (default 1 MiB).
func (c *Config) stripeBytes() int64 {
	if c.StripeBytes > 0 {
		return c.StripeBytes
	}
	return 1 << 20
}

// decodeLatency is the per-op reconstruction latency (default 25µs).
func (c *Config) decodeLatency() sim.Duration {
	if c.DecodeLatency > 0 {
		return c.DecodeLatency
	}
	return 25 * time.Microsecond
}

// decodeAmp is the degraded-read QLC amplification (default 1.5).
func (c *Config) decodeAmp() float64 {
	if c.DecodeReadAmp >= 1 {
		return c.DecodeReadAmp
	}
	return 1.5
}

// FailDBox takes enclosure i out of service: the fabric and the SCM/QLC
// pools lose its share, and reads homed on it turn degraded. Failing an
// already-failed enclosure is a no-op; failing the last healthy one
// panics (the cluster would be down, which no experiment models).
func (s *System) FailDBox(i int) {
	if i < 0 || i >= s.cfg.DBoxes {
		panic(fmt.Sprintf("vast %s: no DBox %d", s.cfg.Name, i))
	}
	if s.dboxFailed[i] {
		return
	}
	if s.healthyDBoxes() == 1 {
		panic(fmt.Sprintf("vast %s: cannot fail the last healthy DBox", s.cfg.Name))
	}
	s.dboxFailed[i] = true
	s.dboxRebuilt[i] = 0
	s.applyDBoxHealth()
}

// RecoverDBox returns enclosure i to service at exact nominal capacity;
// recovering a healthy enclosure is a no-op.
func (s *System) RecoverDBox(i int) {
	if i < 0 || i >= s.cfg.DBoxes || !s.dboxFailed[i] {
		return
	}
	s.dboxFailed[i] = false
	s.dboxRebuilt[i] = 0
	s.applyDBoxHealth()
}

// SetDBoxRebuild counts failed enclosure i as fraction frac reconstructed
// when deriving fabric and media capacity, so health recovers
// incrementally as a rebuild progresses.
func (s *System) SetDBoxRebuild(i int, frac float64) {
	if i < 0 || i >= s.cfg.DBoxes || !s.dboxFailed[i] {
		return
	}
	s.dboxRebuilt[i] = frac
	s.applyDBoxHealth()
}

// healthyDBoxes counts the enclosures in service.
func (s *System) healthyDBoxes() int {
	n := 0
	for i := 0; i < s.cfg.DBoxes; i++ {
		if !s.dboxFailed[i] {
			n++
		}
	}
	return n
}

// dboxFraction is the enclosures' effective share: whole healthy DBoxes
// plus the rebuilt fractions of failed ones. With nothing failed the sum
// of zeros keeps the division exact, so fail/recover pairs still restore
// bit-identical nominal capacity.
func (s *System) dboxFraction() float64 {
	sum := float64(s.healthyDBoxes())
	for i := 0; i < s.cfg.DBoxes; i++ {
		if s.dboxFailed[i] {
			sum += s.dboxRebuilt[i]
		}
	}
	return sum / float64(s.cfg.DBoxes)
}

// applyDBoxHealth scales the CBox↔DBox fabric and the SCM/QLC pools to
// the DBox fraction composed with the prevailing cluster-wide derates.
func (s *System) applyDBoxHealth() {
	frac := s.dboxFraction()
	s.fabricUp.SetHealthFactor(s.linkHealth * frac)
	s.fabricDown.SetHealthFactor(s.linkHealth * frac)
	s.scm.SetHealthFactor(s.mediaHealth * frac)
	s.qlc.SetHealthFactor(s.mediaHealth * frac)
}

// stripeHome maps a stripe index to the DBox its data strip lives on.
func (s *System) stripeHome(stripe int64) int {
	return int(stripe % int64(s.cfg.DBoxes))
}

// readDegraded reports whether any stripe of [off, off+n) is homed on a
// failed enclosure — those reads must reconstruct from parity.
func (s *System) readDegraded(off, n int64) bool {
	if s.healthyDBoxes() == s.cfg.DBoxes {
		return false
	}
	sb := s.cfg.stripeBytes()
	for st := off / sb; st*sb < off+n; st++ {
		if s.dboxFailed[s.stripeHome(st)] {
			return true
		}
	}
	return false
}

// qlcOpRead serves one op-level read from the QLC backbone, paying the
// decode penalty — reconstruction latency plus read amplification on the
// surviving flash — when the extent is homed on a degraded enclosure. The
// penalty disappears the moment the enclosure's rebuild completes
// (RecoverDBox clears dboxFailed).
func (s *System) qlcOpRead(p *sim.Proc, id uint64, off, n int64) {
	if s.readDegraded(off, n) {
		p.Sleep(s.cfg.decodeLatency())
		n = int64(float64(n) * s.cfg.decodeAmp())
	}
	s.qlc.Read(p, id, off, n)
}

// --- repair.Protected ---

// RepairScheme implements repair.Protected: wide-stripe erasure coding
// across enclosures; CNode failures cost capacity, never data
// (ServersHoldData false).
func (s *System) RepairScheme() repair.Scheme {
	return repair.Scheme{Kind: repair.ErasureCode, Tolerance: s.cfg.ecTolerance(), ServersHoldData: false}
}

// FaultUnits implements faults.UnitTarget: one redundancy unit per DBox.
func (s *System) FaultUnits() int { return s.cfg.DBoxes }

// FailUnit implements faults.UnitTarget.
func (s *System) FailUnit(i int) { s.FailDBox(i) }

// RecoverUnit implements faults.UnitTarget.
func (s *System) RecoverUnit(i int) { s.RecoverDBox(i) }

// SetUnitRebuild implements repair.Protected.
func (s *System) SetUnitRebuild(i int, frac float64) { s.SetDBoxRebuild(i, frac) }

// UnitBytes implements repair.Protected: the physical bytes homed on one
// enclosure — the reduced QLC footprint plus the SCM-staged tail, spread
// evenly by the wide stripes.
func (s *System) UnitBytes(i int) float64 {
	ratio := s.cfg.ReductionRatio
	if ratio < 1 {
		ratio = 1
	}
	flash := float64(s.staging.Migrated())/ratio + float64(s.staging.Staged())
	return flash / float64(s.cfg.DBoxes)
}

// RepairPath implements repair.Protected: reconstruction streams
// surviving strips out of the QLC pool, across the CBox↔DBox fabric (the
// CNodes decode) and back onto spare flash — contending with foreground
// traffic on every hop.
func (s *System) RepairPath(i int) []*sim.Pipe {
	return []*sim.Pipe{s.qlc.ReadPipe(), s.fabricDown, s.fabricUp, s.qlc.WritePipe()}
}

var _ repair.Protected = (*System)(nil)
