package sim

// Barrier is a reusable synchronization barrier for a fixed party count,
// like MPI_Barrier: the n-th arrival releases everyone and re-arms the
// barrier for the next round. DLIO uses it for epoch boundaries; IOR-style
// phase barriers use WaitGroup instead (parties that terminate).
type Barrier struct {
	env     *Env
	parties int
	arrived int
	round   *Event
}

// NewBarrier returns a barrier for the given party count (> 0).
func NewBarrier(env *Env, name string, parties int) *Barrier {
	if parties <= 0 {
		panic("sim: barrier needs at least one party: " + name)
	}
	return &Barrier{env: env, parties: parties, round: NewEvent(env)}
}

// Wait blocks the calling process until all parties have arrived, then
// releases the round together.
func (b *Barrier) Wait(p *Proc) {
	b.arrived++
	if b.arrived == b.parties {
		b.arrived = 0
		round := b.round
		b.round = NewEvent(b.env) // re-arm before waking anyone
		round.Fire()
		return
	}
	round := b.round
	round.Wait(p)
}
