package gpfs

// NSD server failure and recovery. The model pools the 16 NSD servers'
// NICs and GPFS-RAID arrays into aggregate pipes (clients stripe wide), so
// losing a server removes its share of every pool: NIC bandwidth, server
// memory service and RAID bandwidth all scale to the healthy fraction.
// GPFS-RAID's declustered layout means a server failure degrades bandwidth
// rather than losing data, which is exactly this model.
//
// Capacity changes route through the pipes' health factors
// (sim.Pipe.SetHealthFactor), so a fail/recover pair restores the exact
// nominal pool capacity.

// applyHealth scales the pooled pipes and the RAID pool to the healthy
// fraction combined with the prevailing cluster-wide derates. A failed
// server mid-rebuild contributes its reconstructed fraction (repair.go),
// so pool capacity recovers incrementally instead of snapping back.
func (s *System) applyHealth() {
	frac := s.nsds.Fraction()
	s.nsdUp.SetHealthFactor(frac * s.linkHealth)
	s.nsdDown.SetHealthFactor(frac * s.linkHealth)
	s.serverMem.SetHealthFactor(frac * s.linkHealth)
	s.raid.SetHealthFactor(frac * s.mediaHealth)
}

// --- faults.Target ---

// FaultServers implements faults.Target: the failable servers are the NSD
// servers.
func (s *System) FaultServers() int { return s.nsds.Len() }

// FailServer implements faults.Target: takes NSD server i out of service
// (faults.Units.Fail: a no-op on a failed server, a panic on the last
// healthy one, as the file system would be down).
func (s *System) FailServer(i int) {
	if s.nsds.Fail(i) {
		s.applyHealth()
	}
}

// RecoverServer implements faults.Target: returns a failed NSD server to
// service at its full share; recovering a healthy server is a no-op.
func (s *System) RecoverServer(i int) {
	if s.nsds.Recover(i) {
		s.applyHealth()
	}
}

// SetLinkHealth implements faults.Target: derates the SAN-facing pools to
// fraction f of nominal (the per-node client stack pipes are unaffected —
// they live on the compute nodes).
func (s *System) SetLinkHealth(f float64) {
	s.linkHealth = f
	s.applyHealth()
}

// SetMediaHealth implements faults.Target: derates the GPFS-RAID pool
// (a rebuilding declustered-RAID group serving degraded reads).
func (s *System) SetMediaHealth(f float64) {
	s.mediaHealth = f
	s.applyHealth()
}
