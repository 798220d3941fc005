package nvmelocal

// Node failure and SSD wear. The failable "servers" are the mounted nodes
// in mount order: failing one parks its NVMe array and page-cache ingest
// pipe (the node is down; a peer reading its data over the interconnect
// crawls at the parked rate until it returns). Register the system with
// the fault injector only after all mounts: FaultServers reports the
// mounted-node count.
//
// SetMediaHealth is the wear model the paper's consumer 970 PRO SSDs
// invite: a worn or thermally-throttled drive serves fraction f of its
// nominal bandwidth.

// --- faults.Target ---

// FaultServers implements faults.Target: the failable servers are the
// mounted nodes (register with the injector after mounting).
func (s *System) FaultServers() int { return s.units.Len() }

// FailServer implements faults.Target: takes the i-th mounted node (mount
// order) out of service. Failing a failed node is a no-op; failing the
// last healthy node panics (faults.Units.Fail).
func (s *System) FailServer(i int) {
	if !s.units.Fail(i) {
		return
	}
	st := s.nodes[s.order[i]]
	st.dev.SetHealthFactor(0)
	st.memIn.SetHealthFactor(0)
}

// RecoverServer implements faults.Target: returns a failed node to
// service; recovering a healthy node is a no-op.
func (s *System) RecoverServer(i int) {
	if !s.units.Recover(i) {
		return
	}
	st := s.nodes[s.order[i]]
	st.dev.SetHealthFactor(s.mediaHealth)
	st.memIn.SetHealthFactor(1)
}

// SetLinkHealth implements faults.Target: derates the node interconnect
// used for cross-node copies (no-op without one).
func (s *System) SetLinkHealth(f float64) {
	if s.cfg.Interconnect != nil {
		s.cfg.Interconnect.SetHealthFactor(f)
	}
}

// SetMediaHealth implements faults.Target: derates every healthy node's
// NVMe array (SSD wear). Failed nodes stay parked and pick up the
// prevailing factor when they recover.
func (s *System) SetMediaHealth(f float64) {
	s.mediaHealth = f
	for i, name := range s.order {
		if !s.units.Failed(i) {
			s.nodes[name].dev.SetHealthFactor(f)
		}
	}
}
