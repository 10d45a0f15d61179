package sim

// Cond is a condition variable for procs. The zero value is ready to use.
// Signalled procs are scheduled as events at the current virtual time, so
// wakeup order is deterministic (FIFO among waiters).
type Cond struct {
	// waiters[head:] is the FIFO queue. The backing array is reused: head
	// resets when the queue drains, and enqueue compacts instead of
	// growing while a dead prefix holds space.
	waiters []*Proc
	head    int
}

// enqueue appends p to the wait queue.
func (c *Cond) enqueue(p *Proc) {
	if c.head > 0 && len(c.waiters) == cap(c.waiters) {
		n := copy(c.waiters, c.waiters[c.head:])
		clear(c.waiters[n:])
		c.waiters = c.waiters[:n]
		c.head = 0
	}
	c.waiters = append(c.waiters, p)
}

// Signal wakes the longest-waiting proc, if any, and reports whether a proc
// was woken. Must be called with engine control (from a proc or callback).
func (c *Cond) Signal(e *Engine) bool {
	for c.head < len(c.waiters) {
		p := c.waiters[c.head]
		c.waiters[c.head] = nil
		c.head++
		if c.head == len(c.waiters) {
			c.waiters = c.waiters[:0]
			c.head = 0
		}
		if p.state != stateWaiting {
			continue
		}
		p.state = stateReady
		e.pushProc(e.now, p)
		return true
	}
	return false
}

// Broadcast wakes every waiting proc and returns how many were woken.
func (c *Cond) Broadcast(e *Engine) int {
	n := 0
	for c.Signal(e) {
		n++
	}
	return n
}

// broadcastLocked is Broadcast for engine-internal use (proc completion).
func (c *Cond) broadcastLocked(e *Engine) { c.Broadcast(e) }

// Waiters reports how many procs are currently blocked on the cond.
func (c *Cond) Waiters() int { return len(c.waiters) - c.head }

// Barrier synchronizes a fixed group of procs: each arrival blocks until
// the Nth proc arrives, which releases the whole group. Reusable across
// rounds, like a cyclic barrier.
type Barrier struct {
	n       int
	arrived int
	round   int
	cond    Cond
}

// NewBarrier returns a barrier for n parties.
func NewBarrier(n int) *Barrier {
	if n <= 0 {
		panic("sim: barrier size must be positive")
	}
	return &Barrier{n: n}
}

// Await blocks the calling proc until all n parties have arrived.
// It returns the barrier round index that was completed.
func (b *Barrier) Await(v *Env) int {
	round := b.Arrive(v.engine)
	for !b.Passed(v, round) {
		v.proc.handoff()
	}
	return round
}

// Arrive counts one party's arrival without blocking and returns the
// round it joined. The nth arrival completes the round and wakes the
// parties waiting on it.
func (b *Barrier) Arrive(e *Engine) int {
	round := b.round
	b.arrived++
	if b.arrived == b.n {
		b.arrived = 0
		b.round++
		b.cond.Broadcast(e)
	}
	return round
}

// Passed reports whether round is complete. When it is not, Passed parks
// the proc on the barrier, as TryWait does, and the proc asks again once
// it is woken.
func (b *Barrier) Passed(v *Env, round int) bool {
	if b.round != round {
		return true
	}
	v.TryWait(&b.cond)
	return false
}

// WaitGroup counts outstanding work items across procs.
type WaitGroup struct {
	count int
	cond  Cond
}

// Add increments the counter by delta.
func (w *WaitGroup) Add(delta int) {
	w.count += delta
	if w.count < 0 {
		panic("sim: negative WaitGroup counter")
	}
}

// DoneOne decrements the counter and wakes waiters at zero.
func (w *WaitGroup) DoneOne(e *Engine) {
	w.Add(-1)
	if w.count == 0 {
		w.cond.Broadcast(e)
	}
}

// Wait blocks the proc until the counter reaches zero.
func (w *WaitGroup) Wait(v *Env) {
	for w.count > 0 {
		v.Wait(&w.cond)
	}
}
