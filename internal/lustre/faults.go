package lustre

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

// applyHealth scales the pooled pipes and the OST pool to the healthy
// fraction combined with the prevailing cluster-wide derates. A failed
// OSS mid-resilver contributes its rebuilt fraction (repair.go), so pool
// capacity recovers incrementally instead of snapping back.
func (s *System) applyHealth() {
	frac := s.osses.Fraction()
	s.ossUp.SetHealthFactor(frac * s.linkHealth)
	s.ossDown.SetHealthFactor(frac * s.linkHealth)
	s.pool.SetHealthFactor(frac * s.mediaHealth)
}

// --- faults.Target ---

// FaultServers implements faults.Target: the failable servers are the
// OSSes (MDS failures are not modeled — opens would block, not degrade).
func (s *System) FaultServers() int { return s.osses.Len() }

// FailServer implements faults.Target: takes OSS i out of service
// (faults.Units.Fail: a no-op on a failed OSS, a panic on the last healthy
// one).
func (s *System) FailServer(i int) {
	if s.osses.Fail(i) {
		s.applyHealth()
	}
}

// RecoverServer implements faults.Target: returns a failed OSS to service
// at its full share; recovering a healthy OSS is a no-op.
func (s *System) RecoverServer(i int) {
	if s.osses.Recover(i) {
		s.applyHealth()
	}
}

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
