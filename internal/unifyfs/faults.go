package unifyfs

// Node failure and recovery. UnifyFS aggregates the compute nodes' local
// devices, so the failable "servers" are the mounted nodes themselves: a
// failed node's device is parked (chunks it owns are still addressed —
// UnifyFS has no re-replication — so accesses to them crawl at the parked
// rate until the node returns, the user-level analogue of an NFS hard
// mount). Register the system with the fault injector only after all
// mounts: FaultServers reports the mounted-node count.
//
// Capacity changes route through the device's health factor, so a
// fail/recover pair restores the exact nominal device bandwidth.

// --- faults.Target ---

// FaultServers implements faults.Target: the failable servers are the
// mounted nodes (register with the injector after mounting).
func (s *System) FaultServers() int { return s.units.Len() }

// FailServer implements faults.Target: takes mounted node i out of
// service. Failing a failed node is a no-op; failing the last healthy node
// panics (faults.Units.Fail).
func (s *System) FailServer(i int) {
	if s.units.Fail(i) {
		s.nodes[i].dev.SetHealthFactor(0)
	}
}

// RecoverServer implements faults.Target: returns a failed node to
// service; recovering a healthy node is a no-op.
func (s *System) RecoverServer(i int) {
	if s.units.Recover(i) {
		s.nodes[i].dev.SetHealthFactor(s.mediaHealth)
	}
}

// SetLinkHealth implements faults.Target: derates the node interconnect
// that carries remote chunk traffic (no-op without one).
func (s *System) SetLinkHealth(f float64) {
	if s.cfg.Interconnect != nil {
		s.cfg.Interconnect.SetHealthFactor(f)
	}
}

// SetMediaHealth implements faults.Target: derates every healthy node's
// local device (SSD wear across the burst-buffer fleet). Failed nodes stay
// parked and pick up the prevailing factor when they recover.
func (s *System) SetMediaHealth(f float64) {
	s.mediaHealth = f
	for i, st := range s.nodes {
		if !s.units.Failed(i) {
			st.dev.SetHealthFactor(f)
		}
	}
}
