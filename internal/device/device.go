// Package device models block storage devices — storage-class-memory SSDs,
// hyperscale QLC flash, SAS hard disks, consumer NVMe — as latency +
// shared-bandwidth servers on the simulation fabric.
//
// Two levels of fidelity are offered, matching the two kinds of experiments
// in the paper:
//
//   - Op level (Read/Write/Flush): each I/O pays per-op access latency, a
//     seek penalty when it is not sequential with the previous access to the
//     same file, and then streams its bytes through the device's shared
//     bandwidth pipe under a queue-depth limit. Used for the single-node
//     fsync tests and the DLIO sample reads.
//
//   - Flow level (StreamRead/StreamWrite): a rank's whole phase is one flow;
//     non-sequential patterns are charged an inflation factor derived from
//     the same per-op costs, so a random-read stream obtains exactly the
//     device's effective random bandwidth. Used for the IOR scalability
//     sweeps where the paper sizes I/O to defeat caches (120 GB per node).
package device

import (
	"fmt"

	"storagesim/internal/sim"
)

// Access describes the spatial pattern of an I/O stream.
type Access int

const (
	// Sequential accesses advance through a file in order (IOR sequential
	// read/write; scientific and data-analytics workloads).
	Sequential Access = iota
	// Random accesses jump to uncorrelated offsets (IOR random read; the
	// paper's stand-in for ML workloads).
	Random
)

// String returns "seq" or "random".
func (a Access) String() string {
	if a == Sequential {
		return "seq"
	}
	return "random"
}

// Spec is the parameter set of a device model. All bandwidths are
// bytes/second; latencies are per operation.
type Spec struct {
	Name string
	// ReadBW and WriteBW are the sustained sequential media bandwidths.
	ReadBW, WriteBW float64
	// ReadLatency/WriteLatency are per-op access latencies (controller +
	// media access for the first byte).
	ReadLatency, WriteLatency sim.Duration
	// SeekPenalty is the extra cost of a non-sequential access: rotational
	// seek for disks, ~0 for flash.
	SeekPenalty sim.Duration
	// FlushLatency is the cost of making data durable on fsync. Devices
	// with power-loss protection (enterprise SSD, SCM) flush in ~0; consumer
	// NVMe must drain its volatile write cache.
	FlushLatency sim.Duration
	// QueueDepth bounds concurrent operations at the device.
	QueueDepth int
	// Units is the internal parallelism of the device: spindles in a RAID
	// group, members of a device bank. Per-op costs are paid per unit, so a
	// 120-spindle array serves 120 concurrent seeks. Zero means 1.
	Units int
}

// Validate reports the first problem with the spec, or nil.
func (s *Spec) Validate() error {
	switch {
	case s.Name == "":
		return fmt.Errorf("device: spec missing name")
	case s.ReadBW <= 0 || s.WriteBW <= 0:
		return fmt.Errorf("device %s: bandwidths must be positive", s.Name)
	case s.ReadLatency < 0 || s.WriteLatency < 0 || s.SeekPenalty < 0 || s.FlushLatency < 0:
		return fmt.Errorf("device %s: negative latency", s.Name)
	case s.QueueDepth <= 0:
		return fmt.Errorf("device %s: queue depth must be positive", s.Name)
	}
	return nil
}

// Scale returns a copy of the spec with bandwidths, queue depth and unit
// count multiplied by n — the standard way to build a RAID group or a bank
// of identical devices behind one controller. Per-unit characteristics
// (latency, seek, per-unit bandwidth) are preserved.
func (s Spec) Scale(n int, name string) Spec {
	out := s
	out.Name = name
	out.ReadBW *= float64(n)
	out.WriteBW *= float64(n)
	out.QueueDepth *= n
	if out.Units <= 0 {
		out.Units = 1
	}
	out.Units *= n
	return out
}

// units returns the effective unit count (>= 1).
func (s Spec) units() int {
	if s.Units <= 0 {
		return 1
	}
	return s.Units
}

// Device is an instantiated device on a fabric.
type Device struct {
	spec      Spec
	env       *sim.Env
	fab       *sim.Fabric
	readPipe  *sim.Pipe
	writePipe *sim.Pipe
	qd        *sim.Resource

	// nextOffset tracks the expected next sequential offset per file, used
	// to detect seeks at op level.
	nextOffset map[uint64]int64

	// service caches the per-(pattern, direction, ioSize) stream paths used
	// by the flow-level API; see StreamPipes. serviceList holds the service
	// pipes in creation order so Derate never iterates a map (map order
	// would leak into the fabric's dirty-pipe order and with it into float
	// evaluation order — a reproducibility hazard).
	service     map[serviceKey][]*sim.Pipe
	serviceList []*sim.Pipe

	// cached single-pipe media paths for full-bandwidth streams.
	readPath  []*sim.Pipe
	writePath []*sim.Pipe

	// health is the current fault derate factor, remembered so service
	// pipes created lazily mid-fault inherit it (see StreamPipes).
	health float64

	ops   int64
	seeks int64
}

type serviceKey struct {
	access Access
	write  bool
	ioSize int64
}

// New creates a device and registers its bandwidth pipes on the fabric.
func New(env *sim.Env, fab *sim.Fabric, spec Spec) (*Device, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	d := &Device{
		spec:       spec,
		env:        env,
		fab:        fab,
		readPipe:   fab.NewPipe(spec.Name+"/read", spec.ReadBW, 0),
		writePipe:  fab.NewPipe(spec.Name+"/write", spec.WriteBW, 0),
		qd:         sim.NewResource(env, spec.Name+"/qd", spec.QueueDepth),
		nextOffset: map[uint64]int64{},
		service:    map[serviceKey][]*sim.Pipe{},
		health:     1,
	}
	d.readPath = []*sim.Pipe{d.readPipe}
	d.writePath = []*sim.Pipe{d.writePipe}
	return d, nil
}

// MustNew is New that panics on a bad spec, for use with the validated
// presets in this package.
func MustNew(env *sim.Env, fab *sim.Fabric, spec Spec) *Device {
	d, err := New(env, fab, spec)
	if err != nil {
		panic(err)
	}
	return d
}

// Spec returns the device parameters.
func (d *Device) Spec() Spec { return d.spec }

// Ops returns the number of op-level I/Os served.
func (d *Device) Ops() int64 { return d.ops }

// Seeks returns how many of those paid the seek penalty.
func (d *Device) Seeks() int64 { return d.seeks }

// Derate multiplies the device's media and service pipe capacities by f
// (contention from other tenants of a shared array).
func (d *Device) Derate(f float64) {
	d.readPipe.SetCapacity(d.readPipe.Capacity() * f)
	d.writePipe.SetCapacity(d.writePipe.Capacity() * f)
	for _, svc := range d.serviceList {
		svc.SetCapacity(svc.Capacity() * f)
	}
}

// SetHealthFactor applies an absolute fault derate (1 = healthy, 0 =
// parked) to the media pipes and every derived service pipe — the SSD-wear
// and device-failure handle of the fault injector. serviceList is iterated
// (never the service map) so the dirty-pipe order stays deterministic.
func (d *Device) SetHealthFactor(f float64) {
	d.health = f
	d.readPipe.SetHealthFactor(f)
	d.writePipe.SetHealthFactor(f)
	for _, svc := range d.serviceList {
		svc.SetHealthFactor(f)
	}
}

// ReadPipe exposes the read bandwidth pipe (for wiring into routes).
func (d *Device) ReadPipe() *sim.Pipe { return d.readPipe }

// WritePipe exposes the write bandwidth pipe.
func (d *Device) WritePipe() *sim.Pipe { return d.writePipe }

// Read performs one op-level read of size bytes at offset within file.
func (d *Device) Read(p *sim.Proc, file uint64, offset, size int64) {
	d.op(p, file, offset, size, d.readPipe, d.spec.ReadLatency)
}

// Write performs one op-level write.
func (d *Device) Write(p *sim.Proc, file uint64, offset, size int64) {
	d.op(p, file, offset, size, d.writePipe, d.spec.WriteLatency)
}

func (d *Device) op(p *sim.Proc, file uint64, offset, size int64, pipe *sim.Pipe, lat sim.Duration) {
	if size <= 0 {
		return
	}
	d.qd.Acquire(p, 1)
	defer d.qd.Release(1)
	d.ops++
	if d.nextOffset[file] != offset {
		d.seeks++
		lat += d.spec.SeekPenalty
	}
	d.nextOffset[file] = offset + size
	d.fab.TransferAfter(p, lat, []*sim.Pipe{pipe}, float64(size), 0)
}

// Flush makes previously written data durable (the device half of fsync).
// A flush is a device-wide barrier: it drains the queue (acquires every
// slot) before paying the flush latency, so concurrent flushers serialize —
// the behaviour that makes fsync-per-write so expensive on consumer NVMe.
func (d *Device) Flush(p *sim.Proc) {
	if d.spec.FlushLatency <= 0 {
		return
	}
	d.qd.Acquire(p, d.spec.QueueDepth)
	p.Sleep(d.spec.FlushLatency)
	d.qd.Release(d.spec.QueueDepth)
}

// EffectiveBW returns the sustained aggregate bandwidth of a workload of
// ioSize-byte operations with the given pattern. The device is modeled as
// `Units` independent servers (spindles, SSDs): each op pays a transfer
// time at the unit's share of the media bandwidth, an access latency that
// queueing can overlap (latency / per-unit queue depth), and — for random
// patterns — a seek penalty that cannot be overlapped within a unit (a
// disk arm is mechanical, serial hardware). This makes random reads
// collapse on spinning media and stay near-sequential on flash, which is
// the mechanism behind the paper's GPFS-vs-VAST random-read contrast.
func (d *Device) EffectiveBW(a Access, write bool, ioSize int64) float64 {
	lat := d.spec.ReadLatency
	bw := d.spec.ReadBW
	if write {
		lat = d.spec.WriteLatency
		bw = d.spec.WriteBW
	}
	units := d.spec.units()
	perBW := bw / float64(units)
	qdPerUnit := d.spec.QueueDepth / units
	if qdPerUnit < 1 {
		qdPerUnit = 1
	}
	t := lat.Seconds()/float64(qdPerUnit) + float64(ioSize)/perBW
	if a == Random {
		t += d.spec.SeekPenalty.Seconds()
	}
	if t <= 0 {
		return bw
	}
	eff := float64(ioSize) / t * float64(units)
	if eff > bw {
		eff = bw
	}
	return eff
}

// PerStreamBW returns the sustainable rate of a single blocking stream of
// ioSize ops: unlike EffectiveBW it cannot exploit unit parallelism — one
// outstanding request occupies one spindle/die at a time. This is the
// service rate a random reader without prefetching sees.
func (d *Device) PerStreamBW(a Access, write bool, ioSize int64) float64 {
	lat := d.spec.ReadLatency
	bw := d.spec.ReadBW
	if write {
		lat = d.spec.WriteLatency
		bw = d.spec.WriteBW
	}
	perBW := bw / float64(d.spec.units())
	t := lat.Seconds() + float64(ioSize)/perBW
	if a == Random {
		t += d.spec.SeekPenalty.Seconds()
	}
	if t <= 0 {
		return perBW
	}
	return float64(ioSize) / t
}

// StreamPipes returns the pipes a flow-level stream with the given pattern
// and I/O size must cross at this device. For patterns whose per-op costs
// are negligible (large sequential I/O on flash) this is just the media
// pipe; otherwise a cached "service pipe" with capacity equal to the
// pattern's effective bandwidth is prepended, so that any number of
// concurrent random streams share the device's true random throughput while
// the network path still carries real bytes.
func (d *Device) StreamPipes(a Access, write bool, ioSize int64) []*sim.Pipe {
	media, mediaPath := d.readPipe, d.readPath
	bw := d.spec.ReadBW
	if write {
		media, mediaPath = d.writePipe, d.writePath
		bw = d.spec.WriteBW
	}
	eff := d.EffectiveBW(a, write, ioSize)
	if eff >= 0.999*bw {
		return mediaPath
	}
	key := serviceKey{access: a, write: write, ioSize: ioSize}
	path, ok := d.service[key]
	if !ok {
		name := fmt.Sprintf("%s/svc-%s-%s-%d", d.spec.Name, a, rw(write), ioSize)
		svc := d.fab.NewPipe(name, eff, 0)
		if d.health != 1 {
			svc.SetHealthFactor(d.health)
		}
		d.serviceList = append(d.serviceList, svc)
		path = []*sim.Pipe{svc, media}
		d.service[key] = path
	}
	return path
}

func rw(write bool) string {
	if write {
		return "w"
	}
	return "r"
}

// StreamRead moves `bytes` as one flow-level read stream with the given
// pattern and I/O size, via any extra pipes (the network path) the caller
// supplies, blocking until delivery. rateCap, when non-zero, bounds the
// stream's rate (e.g. a single TCP connection).
func (d *Device) StreamRead(p *sim.Proc, a Access, ioSize int64, bytes float64, path []*sim.Pipe, rateCap float64) {
	d.stream(p, a, false, ioSize, bytes, path, rateCap)
}

// StreamWrite is StreamRead for writes.
func (d *Device) StreamWrite(p *sim.Proc, a Access, ioSize int64, bytes float64, path []*sim.Pipe, rateCap float64) {
	d.stream(p, a, true, ioSize, bytes, path, rateCap)
}

func (d *Device) stream(p *sim.Proc, a Access, write bool, ioSize int64, bytes float64, path []*sim.Pipe, rateCap float64) {
	if bytes <= 0 {
		return
	}
	devPipes := d.StreamPipes(a, write, ioSize)
	if len(path) == 0 {
		// Device-only stream: hand the fabric the cached slice directly.
		d.fab.Transfer(p, devPipes, bytes, rateCap)
		return
	}
	// Concatenate into a stack array: devPipes is a shared cached slice and
	// must never be extended in place, and Transfer keeps the pipes but not
	// the slice that lists them.
	var buf [8]*sim.Pipe
	pipes := append(append(buf[:0], devPipes...), path...)
	d.fab.Transfer(p, pipes, bytes, rateCap)
}
