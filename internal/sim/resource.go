package sim

// Resource is a counting semaphore with FIFO admission, used to model
// limited-concurrency servers such as device queue depths, CPU cores on a
// storage server, or RPC service slots.
type Resource struct {
	env      *Env
	name     string
	why      string // deadlock-report reason, built once
	capacity int
	inUse    int
	waiters  fifo[resWaiter]
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
	return &Resource{env: env, name: name, why: "resource " + name, capacity: capacity}
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
	if r.waiters.len() == 0 && r.inUse+n <= r.capacity {
		r.inUse += n
		return
	}
	r.waiters.push(resWaiter{p: p, n: n})
	p.park(r.why)
}

// Release returns n slots and admits as many queued waiters as now fit, in
// FIFO order.
func (r *Resource) Release(n int) {
	r.inUse -= n
	if r.inUse < 0 {
		panic("sim: release without acquire on " + r.name)
	}
	for r.waiters.len() > 0 {
		w := r.waiters.front()
		if r.inUse+w.n > r.capacity {
			break
		}
		r.inUse += w.n
		r.waiters.pop().p.wake()
	}
}

// Queue is a bounded FIFO buffer connecting producer and consumer processes,
// used for example as the prefetch queue between DLIO I/O workers and the
// training loop. Capacity 0 is not supported (use an Event for rendezvous).
type Queue struct {
	env      *Env
	name     string
	getWhy   string // deadlock-report reasons, built once
	putWhy   string
	capacity int
	items    fifo[any]
	getters  fifo[*Proc]
	putters  fifo[*Proc]
	closed   bool
}

// NewQueue returns an empty queue with the given capacity (> 0).
func NewQueue(env *Env, name string, capacity int) *Queue {
	if capacity <= 0 {
		panic("sim: queue capacity must be positive: " + name)
	}
	return &Queue{
		env: env, name: name, capacity: capacity,
		getWhy: "queue-get " + name, putWhy: "queue-put " + name,
	}
}

// Len returns the number of buffered items.
func (q *Queue) Len() int { return q.items.len() }

// Put appends v, blocking while the queue is full. Put on a closed queue
// panics (a model bug).
func (q *Queue) Put(p *Proc, v any) {
	for q.items.len() >= q.capacity {
		if q.closed {
			panic("sim: put on closed queue " + q.name)
		}
		q.putters.push(p)
		p.park(q.putWhy)
	}
	if q.closed {
		panic("sim: put on closed queue " + q.name)
	}
	q.items.push(v)
	if q.getters.len() > 0 {
		q.getters.pop().wake()
	}
}

// Get removes and returns the oldest item, blocking while the queue is
// empty. It returns ok=false when the queue is closed and drained.
func (q *Queue) Get(p *Proc) (v any, ok bool) {
	for q.items.len() == 0 {
		if q.closed {
			return nil, false
		}
		q.getters.push(p)
		p.park(q.getWhy)
	}
	v = q.items.pop()
	if q.putters.len() > 0 {
		q.putters.pop().wake()
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
	for q.getters.len() > 0 {
		q.getters.pop().wake()
	}
}

// fifo is a first-in first-out list over one reused backing array. pop
// advances a head index instead of re-slicing the front off (which would
// shrink the capacity and make a later push reallocate), and a push into a
// full array slides the live part back to the front when at least half of
// it is popped space, growing it otherwise. A list that never drains thus
// stays within four times its peak length, and once the array has grown
// to that, pushes and pops are allocation-free.
type fifo[T any] struct {
	buf  []T
	head int
}

func (f *fifo[T]) len() int { return len(f.buf) - f.head }

func (f *fifo[T]) push(v T) {
	if len(f.buf) == cap(f.buf) && f.head > 0 && 2*f.head >= len(f.buf) {
		n := copy(f.buf, f.buf[f.head:])
		clear(f.buf[n:])
		f.buf, f.head = f.buf[:n], 0
	}
	f.buf = append(f.buf, v)
}

// front returns the oldest element; the list must not be empty.
func (f *fifo[T]) front() T { return f.buf[f.head] }

// pop removes and returns the oldest element; the list must not be empty.
func (f *fifo[T]) pop() T {
	v := f.buf[f.head]
	var zero T
	f.buf[f.head] = zero
	if f.head++; f.head == len(f.buf) {
		f.buf, f.head = f.buf[:0], 0
	}
	return v
}
