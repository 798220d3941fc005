package unifyfs

import (
	"storagesim/internal/repair"
	"storagesim/internal/sim"
)

// Faults and redundancy. UnifyFS aggregates the compute nodes' local
// devices, so the failable servers are the mounted nodes themselves: a
// failed node's device is parked (chunks it owns are still addressed, so
// accesses to them crawl at the parked rate until the node returns, the
// user-level analogue of an NFS hard mount). Register the system with the
// fault injector only after all mounts: FaultServers reports the
// mounted-node count. UnifyFS keeps exactly one copy of every chunk on the
// writing node's local device — there is no re-replication and no parity
// — so the scheme is None: a node failure loses every chunk the node owns,
// and the repair manager reports those bytes as lost instead of spawning a
// rebuild.

// apply derives every pipe from the fault state: the node interconnect
// that carries remote chunk traffic has the link derate, each healthy
// node's device the media derate (SSD wear across the burst-buffer
// fleet), and a failed node's device is parked.
func (s *System) apply() {
	if s.cfg.Interconnect != nil {
		s.cfg.Interconnect.SetHealthFactor(s.LinkHealth())
	}
	for i, st := range s.nodes {
		h := s.MediaHealth()
		if s.ServerFailed(i) {
			h = 0
		}
		st.dev.SetHealthFactor(h)
	}
}

// RepairScheme implements repair.Protected.
func (s *System) RepairScheme() repair.Scheme {
	return repair.Scheme{Kind: repair.None, Tolerance: 0}
}

// UnitBytes implements repair.Protected: the bytes of every chunk node i
// owns. Map iteration order is irrelevant — integer addition commutes.
func (s *System) UnitBytes(i int) float64 {
	chunks := int64(0)
	for _, owners := range s.chunkOwner {
		for _, owner := range owners {
			if owner == i {
				chunks++
			}
		}
	}
	return float64(chunks * s.cfg.ChunkBytes)
}

// RepairPath implements repair.Protected: no scheme, no repair flows.
func (s *System) RepairPath(i int) []*sim.Pipe { return nil }

var _ repair.Protected = (*System)(nil)
