package gpfs

import (
	"storagesim/internal/repair"
	"storagesim/internal/sim"
)

// Faults and redundancy. The model pools the 16 NSD servers' NICs and
// GPFS-RAID arrays into aggregate pipes (clients stripe wide), so losing a
// server removes its share of every pool: NIC bandwidth, server memory
// service and RAID bandwidth all scale to the healthy fraction. GPFS on
// Lassen protects data with GPFS Native RAID: parity is declustered across
// every pdisk behind every NSD server, so losing a server degrades
// bandwidth but not data, and the rebuild is pooled — every surviving
// server reconstructs a slice of the missing strips in parallel through
// the shared RAID pool. The servers are therefore the redundancy units
// (the fault surface, faults.Units, has none of its own), and the repair
// flows cross the RAID pool's own read and write pipes, where they contend
// with foreground I/O.

// apply scales the pooled pipes and the RAID pool to the servers' healthy
// fraction combined with the prevailing cluster-wide derates (the per-node
// client stack pipes live on the compute nodes and stay nominal). A failed
// server mid-rebuild contributes its reconstructed fraction, so pool
// capacity recovers incrementally instead of snapping back.
func (s *System) apply() {
	frac := s.ServerFraction()
	s.nsdUp.SetHealthFactor(frac * s.LinkHealth())
	s.nsdDown.SetHealthFactor(frac * s.LinkHealth())
	s.serverMem.SetHealthFactor(frac * s.LinkHealth())
	s.raid.SetHealthFactor(frac * s.MediaHealth())
}

// gpfsTolerance is the concurrent server losses the declustered layout
// absorbs (8+2p Reed-Solomon in GPFS Native RAID's standard track).
const gpfsTolerance = 2

// RepairScheme implements repair.Protected.
func (s *System) RepairScheme() repair.Scheme {
	return repair.Scheme{Kind: repair.DeclusteredRAID, Tolerance: gpfsTolerance}
}

// UnitBytes implements repair.Protected: the declustered layout spreads
// every file evenly, so a server's slice is the namespace's live bytes
// over the server count.
func (s *System) UnitBytes(i int) float64 {
	return float64(s.ns.TotalBytes()) / float64(s.cfg.NSDServers)
}

// RepairPath implements repair.Protected: reconstruction reads surviving
// strips from the pool and writes rebuilt strips back to it, so repair
// flows contend with foreground I/O at the RAID pool in both directions.
func (s *System) RepairPath(i int) []*sim.Pipe {
	return []*sim.Pipe{s.raid.ReadPipe(), s.raid.WritePipe()}
}

var _ repair.Protected = (*System)(nil)
