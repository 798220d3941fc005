package sim

// Resource is a counting semaphore with FIFO admission, used to model
// limited-concurrency servers such as device queue depths, CPU cores on a
// storage server, or RPC service slots.
type Resource struct {
	env      *Env
	name     string
	capacity int
	inUse    int
	waiters  []*resWaiter
}

type resWaiter struct {
	p *Proc
	n int
}

// NewResource returns a resource with the given capacity (> 0).
func NewResource(env *Env, name string, capacity int) *Resource {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive: " + name)
	}
	return &Resource{env: env, name: name, capacity: capacity}
}

// Capacity returns the total number of slots.
func (r *Resource) Capacity() int { return r.capacity }

// Acquire blocks the calling process until n slots are available, then takes
// them. Requests are served strictly in arrival order, so a large request
// cannot be starved by a stream of small ones.
func (r *Resource) Acquire(p *Proc, n int) {
	if n <= 0 || n > r.capacity {
		panic("sim: invalid acquire count on " + r.name)
	}
	if len(r.waiters) == 0 && r.inUse+n <= r.capacity {
		r.inUse += n
		return
	}
	r.waiters = append(r.waiters, &resWaiter{p: p, n: n})
	p.park("resource " + r.name)
}

// Release returns n slots and admits as many queued waiters as now fit, in
// FIFO order.
func (r *Resource) Release(n int) {
	r.inUse -= n
	if r.inUse < 0 {
		panic("sim: release without acquire on " + r.name)
	}
	for len(r.waiters) > 0 {
		w := r.waiters[0]
		if r.inUse+w.n > r.capacity {
			break
		}
		r.inUse += w.n
		r.waiters = r.waiters[1:]
		w.p.wake()
	}
}

// Queue is a bounded FIFO buffer connecting producer and consumer processes,
// used for example as the prefetch queue between DLIO I/O workers and the
// training loop. Capacity 0 is not supported (use an Event for rendezvous).
type Queue struct {
	env      *Env
	name     string
	capacity int
	items    []any
	getters  []*Proc
	putters  []*Proc
	closed   bool
}

// NewQueue returns an empty queue with the given capacity (> 0).
func NewQueue(env *Env, name string, capacity int) *Queue {
	if capacity <= 0 {
		panic("sim: queue capacity must be positive: " + name)
	}
	return &Queue{env: env, name: name, capacity: capacity}
}

// Len returns the number of buffered items.
func (q *Queue) Len() int { return len(q.items) }

// Put appends v, blocking while the queue is full. Put on a closed queue
// panics (a model bug).
func (q *Queue) Put(p *Proc, v any) {
	for len(q.items) >= q.capacity {
		if q.closed {
			panic("sim: put on closed queue " + q.name)
		}
		q.putters = append(q.putters, p)
		p.park("queue-put " + q.name)
	}
	if q.closed {
		panic("sim: put on closed queue " + q.name)
	}
	q.items = append(q.items, v)
	if len(q.getters) > 0 {
		g := q.getters[0]
		q.getters = q.getters[1:]
		g.wake()
	}
}

// Get removes and returns the oldest item, blocking while the queue is
// empty. It returns ok=false when the queue is closed and drained.
func (q *Queue) Get(p *Proc) (v any, ok bool) {
	for len(q.items) == 0 {
		if q.closed {
			return nil, false
		}
		q.getters = append(q.getters, p)
		p.park("queue-get " + q.name)
	}
	v = q.items[0]
	q.items = q.items[1:]
	if len(q.putters) > 0 {
		w := q.putters[0]
		q.putters = q.putters[1:]
		w.wake()
	}
	return v, true
}

// Close marks the queue closed: blocked and future Gets drain remaining
// items and then return ok=false.
func (q *Queue) Close() {
	if q.closed {
		return
	}
	q.closed = true
	for _, g := range q.getters {
		g.wake()
	}
	q.getters = nil
}
