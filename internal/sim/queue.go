package sim

// Queue is an unbounded FIFO mailbox connecting processes. Push never
// blocks; Recv blocks the calling process until an item is available.
// Items are delivered in push order; waiting receivers are served in
// arrival order. A Queue must only be used from kernel context (event
// callbacks) or from running processes of the same kernel.
type Queue[T any] struct {
	k       *Kernel
	items   []T
	waiters []*Proc
}

// NewQueue returns an empty queue bound to k.
func NewQueue[T any](k *Kernel) *Queue[T] {
	return &Queue[T]{k: k}
}

// Len returns the number of buffered items.
func (q *Queue[T]) Len() int { return len(q.items) }

// Push enqueues v. If a process is blocked in Recv, it is scheduled to
// resume at the current virtual time with v.
func (q *Queue[T]) Push(v T) {
	if len(q.waiters) > 0 {
		w := q.waiters[0]
		if len(q.waiters) == 1 {
			// The usual case, one server waiting on its mailbox: empty the
			// slice in place. Reslicing from the front would give up the
			// backing array and reallocate it on the next Recv.
			q.waiters = q.waiters[:0]
		} else {
			q.waiters = q.waiters[1:]
		}
		q.k.wakeEvent(w, resumeMsg{val: v})
		return
	}
	q.items = append(q.items, v)
}

// TryRecv pops the head item without blocking. ok is false if the queue is
// empty.
func (q *Queue[T]) TryRecv() (v T, ok bool) {
	if len(q.items) == 0 {
		return v, false
	}
	v = q.items[0]
	q.items = q.items[1:]
	return v, true
}

// Recv pops the head item, blocking p until one is available.
func (q *Queue[T]) Recv(p *Proc) T {
	if v, ok := q.TryRecv(); ok {
		return v
	}
	q.waiters = append(q.waiters, p)
	msg := p.park()
	v, ok := msg.val.(T)
	if !ok {
		panic("sim: queue delivered value of unexpected type")
	}
	return v
}
