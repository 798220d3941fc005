package lustre

import "fmt"

// OSS failure and recovery. The model pools the object storage servers'
// NICs and OSTs into aggregate pipes, so losing an OSS removes its share
// of both pools (in a real deployment its OSTs fail over to an HA partner,
// which then serves double duty — the same aggregate-bandwidth loss). The
// per-stream stripe-1 caps stay nominal: a surviving OSS still serves one
// file at full speed.
//
// Capacity changes route through the pipes' health factors
// (sim.Pipe.SetHealthFactor), so a fail/recover pair restores the exact
// nominal pool capacity.

// FailOSS takes OSS i out of service. Failing an already-failed server is
// a no-op; failing the last healthy OSS panics.
func (s *System) FailOSS(i int) {
	if i < 0 || i >= s.cfg.OSSCount {
		panic(fmt.Sprintf("lustre %s: no OSS %d", s.cfg.Name, i))
	}
	if s.failed[i] {
		return
	}
	if s.healthyOSSes() == 1 {
		panic(fmt.Sprintf("lustre %s: cannot fail the last healthy OSS", s.cfg.Name))
	}
	s.failed[i] = true
	s.rebuilt[i] = 0
	s.applyHealth()
}

// RecoverOSS returns a failed OSS to service; recovering a healthy server
// is a no-op.
func (s *System) RecoverOSS(i int) {
	if i < 0 || i >= s.cfg.OSSCount || !s.failed[i] {
		return
	}
	s.failed[i] = false
	s.rebuilt[i] = 0
	s.applyHealth()
}

// healthyOSSes counts the OSSes in service.
func (s *System) healthyOSSes() int {
	n := 0
	for i := 0; i < s.cfg.OSSCount; i++ {
		if !s.failed[i] {
			n++
		}
	}
	return n
}

// healthyFraction is the pools' effective share: whole healthy OSSes plus
// the rebuilt fractions of failed ones. With nothing failed the sum of
// zeros keeps the division exact, so fail/recover pairs still restore
// bit-identical nominal capacity.
func (s *System) healthyFraction() float64 {
	sum := float64(s.healthyOSSes())
	for i := 0; i < s.cfg.OSSCount; i++ {
		if s.failed[i] {
			sum += s.rebuilt[i]
		}
	}
	return sum / float64(s.cfg.OSSCount)
}

// applyHealth scales the pooled pipes and the OST pool to the healthy
// fraction combined with the prevailing cluster-wide derates. A failed
// OSS mid-resilver contributes its rebuilt fraction (repair.go), so pool
// capacity recovers incrementally instead of snapping back.
func (s *System) applyHealth() {
	frac := s.healthyFraction()
	s.ossUp.SetHealthFactor(frac * s.linkHealth)
	s.ossDown.SetHealthFactor(frac * s.linkHealth)
	s.pool.SetHealthFactor(frac * s.mediaHealth)
}

// --- faults.Target ---

// FaultServers implements faults.Target: the failable servers are the
// OSSes (MDS failures are not modeled — opens would block, not degrade).
func (s *System) FaultServers() int { return s.cfg.OSSCount }

// FailServer implements faults.Target.
func (s *System) FailServer(i int) { s.FailOSS(i) }

// RecoverServer implements faults.Target.
func (s *System) RecoverServer(i int) { s.RecoverOSS(i) }

// SetLinkHealth implements faults.Target: derates the OSS NIC pools to
// fraction f of nominal.
func (s *System) SetLinkHealth(f float64) {
	s.linkHealth = f
	s.applyHealth()
}

// SetMediaHealth implements faults.Target: derates the OST pool (a raidz2
// group resilvering behind a surviving OSS).
func (s *System) SetMediaHealth(f float64) {
	s.mediaHealth = f
	s.applyHealth()
}
