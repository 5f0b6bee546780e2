package simtime

import "fmt"

// Chan is an unbounded FIFO message queue in virtual time. Send never
// blocks and consumes no virtual time; Recv blocks until a message is
// available. Wakeups are FIFO, so delivery order is deterministic.
type Chan[T any] struct {
	eng   *Engine
	name  string
	buf   queue[T]
	recvQ queue[*Proc]
}

// NewChan returns an empty channel attached to e.
func NewChan[T any](e *Engine, name string) *Chan[T] {
	return &Chan[T]{eng: e, name: name}
}

// Send enqueues v and wakes the oldest waiting receiver, if any.
func (c *Chan[T]) Send(v T) {
	c.buf.push(v)
	if c.recvQ.len() > 0 {
		c.eng.wake(c.recvQ.pop())
	}
}

// Recv blocks p until a message is available and returns it.
func (c *Chan[T]) Recv(p *Proc) T {
	for c.buf.len() == 0 {
		c.recvQ.push(p)
		p.park("chan ", c.name)
	}
	v := c.buf.pop()
	// If messages remain and more receivers wait, keep the pipeline moving.
	if c.buf.len() > 0 && c.recvQ.len() > 0 {
		c.eng.wake(c.recvQ.pop())
	}
	return v
}

// Len reports the number of buffered messages.
func (c *Chan[T]) Len() int { return c.buf.len() }

// Future is a single-assignment value that procs can wait on.
type Future[T any] struct {
	eng     *Engine
	name    string
	set     bool
	v       T
	waiters []*Proc
}

// NewFuture returns an unset future attached to e.
func NewFuture[T any](e *Engine, name string) *Future[T] {
	return &Future[T]{eng: e, name: name}
}

// Set resolves the future and wakes all waiters. Setting twice panics.
func (f *Future[T]) Set(v T) {
	if f.set {
		panic("simtime: Future " + f.name + " set twice")
	}
	f.set = true
	f.v = v
	for _, w := range f.waiters {
		f.eng.wake(w)
	}
	f.waiters = nil
}

// Wait blocks p until the future is set and returns its value.
func (f *Future[T]) Wait(p *Proc) T {
	for !f.set {
		f.waiters = append(f.waiters, p)
		p.park("future ", f.name)
	}
	return f.v
}

// Resource is a FIFO-queued counting resource, used to model devices, NICs,
// and other contended hardware. Utilization statistics are accumulated so
// experiments can report device busy time. Tokens are handed off directly
// from releasers to the oldest waiter, so ordering is strictly FIFO.
type Resource struct {
	eng   *Engine
	name  string
	cap   int
	inUse int
	waitQ queue[*Proc]
	held  map[*Proc]Time
	busy  Duration // total held time across all tokens
}

// NewResource returns a resource with capacity tokens.
func NewResource(e *Engine, name string, capacity int) *Resource {
	if capacity < 1 {
		panic("simtime: resource capacity must be >= 1")
	}
	return &Resource{eng: e, name: name, cap: capacity, held: make(map[*Proc]Time)}
}

// Acquire blocks p until a token is available, in FIFO order.
func (r *Resource) Acquire(p *Proc) {
	if r.inUse < r.cap && r.waitQ.len() == 0 {
		r.inUse++
	} else { // only Release wakes p, handing it the token
		r.waitQ.push(p)
		p.park("resource ", r.name)
	}
	r.held[p] = p.Now()
}

// Release returns p's token. If waiters are queued the token passes
// directly to the oldest one.
func (r *Resource) Release(p *Proc) {
	at, ok := r.held[p]
	if !ok {
		panic("simtime: proc " + p.name + " releasing resource " + r.name + " it does not hold")
	}
	delete(r.held, p)
	r.busy += p.Now().Sub(at)
	if r.waitQ.len() > 0 {
		r.eng.wake(r.waitQ.pop())
	} else {
		r.inUse--
	}
}

// Use acquires the resource, holds it for service duration d, and releases
// it: the standard FIFO queueing-server pattern.
func (r *Resource) Use(p *Proc, d Duration) {
	r.Acquire(p)
	p.Sleep(d)
	r.Release(p)
}

// BusyTime returns the cumulative time tokens of this resource were held.
func (r *Resource) BusyTime() Duration { return r.busy }

// Utilization returns busy time divided by (capacity × elapsed time).
func (r *Resource) Utilization() float64 {
	el := r.eng.Now()
	if el == 0 {
		return 0
	}
	return float64(r.busy) / (float64(el) * float64(r.cap))
}

func (r *Resource) String() string {
	return fmt.Sprintf("resource %s cap=%d inUse=%d waiters=%d", r.name, r.cap, r.inUse, r.waitQ.len())
}
