package main

import (
	"sync/atomic"

	"storagesim/internal/fsapi"
	"storagesim/internal/sim"
)

// probe collects a traced rep's counts at the backend boundary and the
// fabrics' byte accounting. A nil *probe leaves mounts and fabrics untouched.
// Counters are atomic because sharded racks mount from two executors.
type probe struct {
	open, streamRead, streamWrite, remove, fileOps atomic.Int64
	fabrics                                        []*sim.Fabric
}

// watch enables a fabric's byte accounting; it must be called before the
// fabric carries its first flow.
func (pr *probe) watch(f *sim.Fabric) {
	if pr == nil {
		return
	}
	f.EnableAccounting()
	pr.fabrics = append(pr.fabrics, f)
}

// wrap returns cl behind a counting wrapper.
func (pr *probe) wrap(cl fsapi.Client) fsapi.Client {
	if pr == nil {
		return cl
	}
	return countingClient{Client: cl, pr: pr}
}

// counts returns the boundary and fabric counts; payload is the requests'
// application bytes, the base of the amplification ratio.
func (pr *probe) counts(payload float64) map[string]float64 {
	var bytes, top float64
	for _, f := range pr.fabrics {
		for _, p := range f.Pipes() {
			bytes += p.BytesMoved()
		}
		if u := f.TopUtilized(1); len(u) > 0 && u[0].Utilization > top {
			top = u[0].Utilization
		}
	}
	out := map[string]float64{
		"fsapi.open":         float64(pr.open.Load()),
		"fsapi.stream_read":  float64(pr.streamRead.Load()),
		"fsapi.stream_write": float64(pr.streamWrite.Load()),
		"fsapi.remove":       float64(pr.remove.Load()),
		"fsapi.file_ops":     float64(pr.fileOps.Load()),
		"fabric.pipe_gib":    bytes / (1 << 30),
		"fabric.top_util":    top,
	}
	if payload > 0 {
		out["fabric.amplification"] = bytes / payload
	}
	return out
}

// countingClient counts calls into a mount and forwards them unchanged.
type countingClient struct {
	fsapi.Client
	pr *probe
}

// SetFlowTag forwards tenant tagging, which the traffic engine finds by a
// type assertion on the mount.
func (c countingClient) SetFlowTag(tag string) {
	if tg, ok := c.Client.(fsapi.FlowTagger); ok {
		tg.SetFlowTag(tag)
	}
}

func (c countingClient) Open(p *sim.Proc, path string, truncate bool) fsapi.File {
	c.pr.open.Add(1)
	return countingFile{File: c.Client.Open(p, path, truncate), pr: c.pr}
}

func (c countingClient) StreamWrite(p *sim.Proc, path string, a fsapi.Access, ioSize, total int64) {
	c.pr.streamWrite.Add(1)
	c.Client.StreamWrite(p, path, a, ioSize, total)
}

func (c countingClient) StreamRead(p *sim.Proc, path string, a fsapi.Access, ioSize, total int64) {
	c.pr.streamRead.Add(1)
	c.Client.StreamRead(p, path, a, ioSize, total)
}

func (c countingClient) Remove(p *sim.Proc, path string) {
	c.pr.remove.Add(1)
	c.Client.Remove(p, path)
}

// countingFile counts operations on an open handle.
type countingFile struct {
	fsapi.File
	pr *probe
}

func (f countingFile) WriteAt(p *sim.Proc, off, n int64) {
	f.pr.fileOps.Add(1)
	f.File.WriteAt(p, off, n)
}

func (f countingFile) ReadAt(p *sim.Proc, off, n int64) {
	f.pr.fileOps.Add(1)
	f.File.ReadAt(p, off, n)
}

func (f countingFile) Fsync(p *sim.Proc) {
	f.pr.fileOps.Add(1)
	f.File.Fsync(p)
}

func (f countingFile) Close(p *sim.Proc) {
	f.pr.fileOps.Add(1)
	f.File.Close(p)
}
