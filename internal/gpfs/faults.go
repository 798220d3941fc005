package gpfs

import "fmt"

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

// FailNSD takes NSD server i out of service. Failing an already-failed
// server is a no-op; failing the last healthy server panics (the file
// system would be down, which no experiment models).
func (s *System) FailNSD(i int) {
	if i < 0 || i >= s.cfg.NSDServers {
		panic(fmt.Sprintf("gpfs %s: no NSD server %d", s.cfg.Name, i))
	}
	if s.failed[i] {
		return
	}
	if s.healthyNSDs() == 1 {
		panic(fmt.Sprintf("gpfs %s: cannot fail the last healthy NSD server", s.cfg.Name))
	}
	s.failed[i] = true
	s.rebuilt[i] = 0
	s.applyHealth()
}

// RecoverNSD returns a failed NSD server to service; recovering a healthy
// server is a no-op.
func (s *System) RecoverNSD(i int) {
	if i < 0 || i >= s.cfg.NSDServers || !s.failed[i] {
		return
	}
	s.failed[i] = false
	s.rebuilt[i] = 0
	s.applyHealth()
}

// healthyNSDs counts the NSD servers in service.
func (s *System) healthyNSDs() int {
	n := 0
	for i := 0; i < s.cfg.NSDServers; i++ {
		if !s.failed[i] {
			n++
		}
	}
	return n
}

// healthyFraction is the pools' effective share: whole healthy servers
// plus the rebuilt fractions of failed ones. With nothing failed the sum
// of zeros keeps the division exact, so fail/recover pairs still restore
// bit-identical nominal capacity.
func (s *System) healthyFraction() float64 {
	sum := float64(s.healthyNSDs())
	for i := 0; i < s.cfg.NSDServers; i++ {
		if s.failed[i] {
			sum += s.rebuilt[i]
		}
	}
	return sum / float64(s.cfg.NSDServers)
}

// applyHealth scales the pooled pipes and the RAID pool to the healthy
// fraction combined with the prevailing cluster-wide derates. A failed
// server mid-rebuild contributes its reconstructed fraction (repair.go),
// so pool capacity recovers incrementally instead of snapping back.
func (s *System) applyHealth() {
	frac := s.healthyFraction()
	s.nsdUp.SetHealthFactor(frac * s.linkHealth)
	s.nsdDown.SetHealthFactor(frac * s.linkHealth)
	s.serverMem.SetHealthFactor(frac * s.linkHealth)
	s.raid.SetHealthFactor(frac * s.mediaHealth)
}

// --- faults.Target ---

// FaultServers implements faults.Target: the failable servers are the NSD
// servers.
func (s *System) FaultServers() int { return s.cfg.NSDServers }

// FailServer implements faults.Target.
func (s *System) FailServer(i int) { s.FailNSD(i) }

// RecoverServer implements faults.Target.
func (s *System) RecoverServer(i int) { s.RecoverNSD(i) }

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
