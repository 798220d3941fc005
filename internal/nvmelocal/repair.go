package nvmelocal

import (
	"storagesim/internal/repair"
	"storagesim/internal/sim"
)

// Faults and redundancy. The failable servers are the mounted nodes in
// mount order: a failed node's NVMe array and page-cache ingest pipe are
// parked (the node is down; a peer reading its data over the interconnect
// crawls at the parked rate until it returns). Register the system with
// the fault injector only after all mounts: FaultServers reports the
// mounted-node count. The media derate is the wear model the paper's
// consumer 970 PRO SSDs invite: a worn or thermally-throttled drive serves
// fraction f of its nominal bandwidth. A node-local NVMe scratch file
// system has no redundancy at all — the paper's Wombat nodes run a plain
// md-RAID0 of consumer SSDs — so the scheme is None: a node failure loses
// the node's whole local namespace, and the repair manager reports those
// bytes as lost instead of spawning a rebuild.

// apply derives every pipe from the fault state: the node interconnect
// carries the link derate, each healthy node's NVMe array the media
// derate, and a failed node's array and ingest pipe are parked.
func (s *System) apply() {
	if s.cfg.Interconnect != nil {
		s.cfg.Interconnect.SetHealthFactor(s.LinkHealth())
	}
	for i, name := range s.order {
		st := s.nodes[name]
		dev, mem := s.MediaHealth(), 1.0
		if s.ServerFailed(i) {
			dev, mem = 0, 0
		}
		st.dev.SetHealthFactor(dev)
		st.memIn.SetHealthFactor(mem)
	}
}

// RepairScheme implements repair.Protected.
func (s *System) RepairScheme() repair.Scheme {
	return repair.Scheme{Kind: repair.None, Tolerance: 0}
}

// UnitBytes implements repair.Protected: the live bytes of node i's
// private namespace.
func (s *System) UnitBytes(i int) float64 {
	if i < 0 || i >= len(s.order) {
		return 0
	}
	return float64(s.nodes[s.order[i]].ns.TotalBytes())
}

// RepairPath implements repair.Protected: no scheme, no repair flows.
func (s *System) RepairPath(i int) []*sim.Pipe { return nil }

var _ repair.Protected = (*System)(nil)
