package lustre

import (
	"storagesim/internal/repair"
	"storagesim/internal/sim"
)

// Faults and redundancy. The model pools the object storage servers' NICs
// and OSTs into aggregate pipes, so losing an OSS removes its share of
// both pools (in a real deployment its OSTs fail over to an HA partner,
// which then serves double duty — the same aggregate-bandwidth loss). The
// per-stream stripe-1 caps stay nominal: a surviving OSS still serves one
// file at full speed. MDS failures are not modeled (opens would block, not
// degrade). The LC Lustre deployments protect each OSS's OSTs with RAID
// (raidz2-class parity): losing an OSS triggers a resilver that reads
// surviving strips and writes reconstructed ones through the shared OST
// pool, where the repair flows contend with foreground I/O. The OSSes are
// therefore the redundancy units (the fault surface, faults.Units, has
// none of its own).

// apply scales the pooled pipes and the OST pool to the OSSes' healthy
// fraction combined with the prevailing cluster-wide derates. A failed
// OSS mid-resilver contributes its rebuilt fraction, so pool capacity
// recovers incrementally instead of snapping back.
func (s *System) apply() {
	frac := s.ServerFraction()
	s.ossUp.SetHealthFactor(frac * s.LinkHealth())
	s.ossDown.SetHealthFactor(frac * s.LinkHealth())
	s.pool.SetHealthFactor(frac * s.MediaHealth())
}

// lustreTolerance is the concurrent OSS losses the parity layout absorbs
// (double parity).
const lustreTolerance = 2

// RepairScheme implements repair.Protected.
func (s *System) RepairScheme() repair.Scheme {
	return repair.Scheme{Kind: repair.DeclusteredRAID, Tolerance: lustreTolerance}
}

// UnitBytes implements repair.Protected: files stripe evenly over the
// OSTs, so an OSS's slice is the namespace's live bytes over the OSS
// count.
func (s *System) UnitBytes(i int) float64 {
	return float64(s.ns.TotalBytes()) / float64(s.cfg.OSSCount)
}

// RepairPath implements repair.Protected: the resilver reads surviving
// strips from the OST pool and writes reconstructed ones back.
func (s *System) RepairPath(i int) []*sim.Pipe {
	return []*sim.Pipe{s.pool.ReadPipe(), s.pool.WritePipe()}
}

var _ repair.Protected = (*System)(nil)
