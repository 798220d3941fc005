package vast

// CNode failure, recovery and failover. Section III-A.2 of the paper
// describes the CNodes as stateless containers: "the VAST system state is
// firstly written into multiple SSDs, then acknowledged and finally
// committed and thus the containers (which host the CNodes) are considered
// stateless." The operational consequence — any CNode can serve any
// client, so a failure only costs capacity, never data or availability —
// is modeled here. The CNodes are the servers of the fault surface
// (faults.Units) and the DBoxes its own redundancy units (repair.go): a
// failed CNode's NIC and reduction engine are parked, its clients re-pin
// to the survivors, and recovering it restores the exact pre-fault
// capacities and re-balances the client pinning.
//
// Capacity changes route through the pipes' health factors
// (sim.Pipe.SetHealthFactor), so a fail/recover pair is a true no-op on
// the fabric: parked components sit at sim.ParkedBps and come back to
// their nominal capacity, not to whatever a cumulative derate left behind.
//
// Op-level workloads resolve their path per operation and fail over after
// the retransmit penalty. A flow-level stream that is mid-flight across a
// failed server keeps its pinned path (the model cannot migrate a live
// flow) and crawls at the parked capacity — mirroring an NFS hard-mount
// retrying until its server returns. Inject failures around flow
// boundaries or use op-level runs for failure studies.

// apply derives every pipe and the client pinning from the fault state:
// each healthy CNode's NIC and reduction engine carry the link derate and
// a failed one's are parked; the multipath pools scale to the healthy-CNode
// fraction combined with the link derate; the CBox↔DBox fabric and the
// SCM/QLC pools scale to the DBox fraction composed with the link and
// media derates (SSD wear, a rebuilding stripe group).
func (s *System) apply() {
	link := s.LinkHealth()
	for i := range s.cnodeNIC {
		h := link
		if s.ServerFailed(i) {
			h = 0
		}
		s.cnodeNIC[i].SetHealthFactor(h)
		s.reduce[i].SetHealthFactor(h)
	}
	if s.cnodePool != nil {
		pool := s.ServerFraction() * link
		s.cnodePool.SetHealthFactor(pool)
		s.reducePool.SetHealthFactor(pool)
	}
	frac := s.UnitFraction()
	s.fabricUp.SetHealthFactor(link * frac)
	s.fabricDown.SetHealthFactor(link * frac)
	s.scm.SetHealthFactor(s.MediaHealth() * frac)
	s.qlc.SetHealthFactor(s.MediaHealth() * frac)
	s.repin()
}

// repin is stateless failover: every client on a failed CNode fails over
// to the next healthy one, and every client whose home CNode (its
// round-robin assignment at mount time) is healthy again moves back to
// it, as the automounter's VIP redistribution does. Moved clients are
// marked stale: with a retry policy configured, their next operation pays
// the NFS retransmit delay before using the new path.
func (s *System) repin() {
	for _, cl := range s.clients {
		switch {
		case s.ServerFailed(cl.cnode):
			cl.cnode = s.nextHealthy(cl.cnode)
		case !s.ServerFailed(cl.home) && cl.cnode != cl.home:
			cl.cnode = cl.home
		default:
			continue
		}
		cl.stale = true
	}
}

// nextHealthy returns the first in-service CNode after i (wrapping).
func (s *System) nextHealthy(i int) int {
	for step := 1; step <= s.cfg.CNodes; step++ {
		j := (i + step) % s.cfg.CNodes
		if !s.ServerFailed(j) {
			return j
		}
	}
	panic("vast: no healthy CNodes") // faults.Units keeps one healthy
}
