package device

import (
	"time"

	"storagesim/internal/units"
)

// Presets for the device families named in the paper (Section III-A and
// IV-B). Values come from public vendor specifications and the latency
// ranges the paper itself quotes; they are calibration constants, collected
// here so every device assumption is visible and testable in one place.
// The arrays behind the GPFS NSD servers and the Lustre OSSes are scaled
// from SASHDDSpec next to the deployments that use them
// (cluster.GPFSRaidPerServer, cluster.LustreOSTPerOSS).

// SCMSpec models a storage-class-memory SSD (the fast layer of a VAST
// DBox). The paper quotes SCM random-access latency of "100 nanoseconds to
// 30 microseconds"; we use 10 µs device-level with full power-loss
// protection (flush is free).
func SCMSpec(name string) Spec {
	return Spec{
		Name:         name,
		ReadBW:       2.4 * units.GBps.Float(),
		WriteBW:      2.0 * units.GBps.Float(),
		ReadLatency:  10 * time.Microsecond,
		WriteLatency: 10 * time.Microsecond,
		SeekPenalty:  0,
		FlushLatency: 0,
		QueueDepth:   64,
	}
}

// QLCSpec models a hyperscale quad-level-cell flash SSD (the capacity layer
// of a VAST DBox). QLC reads are fast; direct QLC programming is slow —
// which is exactly why VAST stages writes in SCM first.
func QLCSpec(name string) Spec {
	return Spec{
		Name:         name,
		ReadBW:       3.2 * units.GBps.Float(),
		WriteBW:      1.0 * units.GBps.Float(),
		ReadLatency:  90 * time.Microsecond,
		WriteLatency: 2 * time.Millisecond, // QLC program time
		SeekPenalty:  0,
		FlushLatency: 0, // enterprise PLP
		QueueDepth:   128,
	}
}

// SASHDDSpec models a nearline SAS hard disk (Lustre OST media on the LC
// clusters and the GPFS NSD media class). The seek penalty is what makes
// random reads collapse on HDD-backed file systems (the paper's 90% GPFS
// drop).
func SASHDDSpec(name string) Spec {
	return Spec{
		Name:         name,
		ReadBW:       230 * units.MBps.Float(),
		WriteBW:      210 * units.MBps.Float(),
		ReadLatency:  2 * time.Millisecond,
		WriteLatency: 2 * time.Millisecond,
		SeekPenalty:  6 * time.Millisecond, // average seek + rotational
		FlushLatency: 8 * time.Millisecond,
		QueueDepth:   4,
	}
}

// NVMe970ProSpec models one Samsung 970 PRO (the node-local NVMe on
// Wombat): PCIe Gen3x4, ~3.5/2.7 GB/s sequential read/write, and a costly
// flush because the consumer part has no power-loss-protected cache.
func NVMe970ProSpec(name string) Spec {
	return Spec{
		Name:         name,
		ReadBW:       2.9 * units.GBps.Float(), // sustained host-side (A64FX PCIe Gen3) rate
		WriteBW:      2.7 * units.GBps.Float(),
		ReadLatency:  80 * time.Microsecond,
		WriteLatency: 30 * time.Microsecond,
		SeekPenalty:  0,
		FlushLatency: 850 * time.Microsecond, // volatile-cache drain on FUA/flush
		QueueDepth:   32,
	}
}
