// Package simtime provides a deterministic discrete-event simulation engine
// with cooperative actor processes ("procs") that advance a shared virtual
// clock. It is the substrate on which the simulated cluster, devices,
// network, and workloads of this repository run.
//
// Exactly one proc executes at any instant: the engine hands a scheduling
// token to one goroutine at a time, so proc code may freely mutate shared
// simulation state without locks, and every run is reproducible (the ready
// queue is FIFO and timer ties break by spawn sequence).
package simtime

import (
	"fmt"
	"sort"
	"time"
)

// Time is an absolute virtual time in nanoseconds since the start of the run.
type Time int64

// Duration re-exports time.Duration for convenience in virtual-time APIs.
type Duration = time.Duration

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns t expressed in seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(time.Second) }

func (t Time) String() string { return Duration(t).String() }

// procState tracks where a proc is in its lifecycle.
type procState int

const (
	stateNew procState = iota
	stateReady
	stateRunning
	stateParked // blocked on a primitive, no timer
	stateTimer  // blocked with a pending timer wakeup
	stateDone
)

// Proc is a cooperative simulation process. All Proc methods must be called
// from the goroutine running the proc's body (i.e. while it holds the
// scheduling token).
type Proc struct {
	eng    *Engine
	name   string
	state  procState
	resume chan struct{}
	// blockKind+blockName describe what a parked proc waits for; they are
	// only joined when a deadlock is reported.
	blockKind, blockName string
	// A proc has at most one pending timer: it wakes at (at, timerSeq).
	at       Time
	timerSeq uint64
	doneHook []func()
}

// Name returns the proc's diagnostic name.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine the proc belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// timerHeap is a min-heap of the procs with a pending timer, by (at, seq).
type timerHeap []*Proc

func (h timerHeap) less(i, j int) bool {
	a, b := h[i], h[j]
	return a.at < b.at || a.at == b.at && a.timerSeq < b.timerSeq
}

func (h timerHeap) swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *timerHeap) push(p *Proc) {
	i := len(*h)
	*h = append(*h, p)
	for i > 0 && h.less(i, (i-1)/2) {
		h.swap(i, (i-1)/2)
		i = (i - 1) / 2
	}
}

// pop removes and returns the earliest timer's proc.
func (h *timerHeap) pop() *Proc {
	old := *h
	n := len(old) - 1
	old.swap(0, n)
	p := old[n]
	old[n] = nil
	old = old[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c+1 < n && old.less(c+1, c) {
			c++
		}
		if c >= n || !old.less(c, i) {
			break
		}
		old.swap(i, c)
		i = c
	}
	*h = old
	return p
}

// Engine is a deterministic discrete-event scheduler. There is no
// scheduler goroutine: a proc that blocks picks the next proc itself and
// hands it the token directly.
type Engine struct {
	now     Time
	seq     uint64
	timers  timerHeap
	ready   queue[*Proc]
	live    map[*Proc]struct{} // procs not yet done
	stop    chan struct{}      // the last proc stopped: Run returns or reports deadlock
	running bool
}

// NewEngine returns an engine with the clock at zero and no procs.
func NewEngine() *Engine {
	return &Engine{live: make(map[*Proc]struct{}), stop: make(chan struct{})}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Go spawns a new proc that will begin executing fn at the current virtual
// time. It may be called before Run or from a running proc.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name, state: stateReady, resume: make(chan struct{}, 1)}
	e.live[p] = struct{}{}
	e.ready.push(p)
	go func() {
		<-p.resume
		fn(p)
		p.state = stateDone
		delete(e.live, p)
		for _, hook := range p.doneHook {
			hook()
		}
		p.handoff()
	}()
	return p
}

// Run drives the simulation until every proc has finished. It panics with a
// diagnostic if the system deadlocks (procs remain but none is runnable and
// no timer is pending).
func (e *Engine) Run() {
	if e.running {
		panic("simtime: Engine.Run called reentrantly")
	}
	e.running = true
	defer func() { e.running = false }()
	if p := e.next(); p != nil {
		p.resume <- struct{}{}
		<-e.stop
	}
	if len(e.live) > 0 {
		panic("simtime: deadlock: " + e.describeParked())
	}
}

// next removes the proc to run next from the scheduler and marks it
// running: the head of the FIFO ready queue, else the earliest timer,
// which advances the clock. It returns nil when nothing is runnable.
func (e *Engine) next() *Proc {
	var p *Proc
	switch {
	case e.ready.len() > 0:
		p = e.ready.pop()
	case len(e.timers) > 0:
		p = e.timers.pop()
		if p.at < e.now {
			panic("simtime: clock moved backwards")
		}
		e.now = p.at
	default:
		return nil
	}
	p.state = stateRunning
	return p
}

// describeParked lists parked procs and what they are blocked on, for
// deadlock diagnostics.
func (e *Engine) describeParked() string {
	var names []string
	for p := range e.live {
		if p.state == stateParked {
			names = append(names, fmt.Sprintf("%s (on %s%s)", p.name, p.blockKind, p.blockName))
		}
	}
	sort.Strings(names)
	s := fmt.Sprintf("%d proc(s) blocked at t=%v:", len(names), e.now)
	for _, n := range names {
		s += " " + n + ";"
	}
	return s
}

// handoff passes the scheduling token from p, which has just queued itself,
// parked or finished, straight to the next runnable proc and, unless p
// finished, blocks until p is picked again. Picking p itself is no switch.
// When nothing is runnable the token goes back to Run.
func (p *Proc) handoff() {
	e := p.eng
	done := p.state == stateDone // read before the token leaves p
	switch q := e.next(); q {
	case p:
		return
	case nil:
		e.stop <- struct{}{}
	default:
		q.resume <- struct{}{}
	}
	if !done {
		<-p.resume
	}
}

// Sleep suspends the proc for virtual duration d. Sleep(0) yields to other
// procs runnable at the current time.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	e := p.eng
	e.seq++
	p.at, p.timerSeq = e.now.Add(d), e.seq
	p.state = stateTimer
	e.timers.push(p)
	p.handoff()
}

// Yield lets other procs runnable at the current virtual time execute.
func (p *Proc) Yield() {
	p.state = stateReady
	p.eng.ready.push(p)
	p.handoff()
}

// park blocks the proc with no pending timer; it must later be woken via
// wake by another proc. kind+name appears in deadlock diagnostics.
func (p *Proc) park(kind, name string) {
	p.blockKind, p.blockName = kind, name
	p.state = stateParked
	p.handoff()
}

// wake moves a parked proc to the ready queue (it will run at the current
// virtual time, in FIFO order).
func (e *Engine) wake(p *Proc) {
	if p.state != stateParked {
		panic("simtime: waking proc " + p.name + " that is not parked")
	}
	p.state = stateReady
	e.ready.push(p)
}

// queue is a FIFO that reuses its backing array instead of reslicing it
// away from the front.
type queue[T any] struct {
	s    []T
	head int
}

func (q *queue[T]) len() int { return len(q.s) - q.head }

func (q *queue[T]) push(v T) {
	if q.head > 0 && len(q.s) == cap(q.s) { // compact rather than grow
		n := copy(q.s, q.s[q.head:])
		clear(q.s[n:])
		q.s, q.head = q.s[:n], 0
	}
	q.s = append(q.s, v)
}

func (q *queue[T]) pop() T {
	v := q.s[q.head]
	var zero T
	q.s[q.head] = zero
	if q.head++; q.head == len(q.s) {
		q.s, q.head = q.s[:0], 0
	}
	return v
}

// OnDone registers a hook invoked (in the proc's goroutine, holding the
// token) when the proc's body returns.
func (p *Proc) OnDone(fn func()) { p.doneHook = append(p.doneHook, fn) }

// WaitGroup is a virtual-time analog of sync.WaitGroup.
type WaitGroup struct {
	n       int
	waiters []*Proc
}

// Add increments the counter by delta.
func (wg *WaitGroup) Add(delta int) {
	wg.n += delta
	if wg.n < 0 {
		panic("simtime: negative WaitGroup counter")
	}
}

// Done decrements the counter, waking waiters when it reaches zero. The
// calling proc must hold the scheduling token.
func (wg *WaitGroup) Done(p *Proc) {
	wg.Add(-1)
	if wg.n == 0 {
		for _, w := range wg.waiters {
			p.eng.wake(w)
		}
		clear(wg.waiters)
		wg.waiters = wg.waiters[:0]
	}
}

// Wait blocks p until the counter reaches zero.
func (wg *WaitGroup) Wait(p *Proc) {
	for wg.n != 0 {
		wg.waiters = append(wg.waiters, p)
		p.park("waitgroup", "")
	}
}

// GoEach spawns one proc per index in [0,n) and returns a WaitGroup that
// completes when all of them have finished. It is the engine's parallel-for.
func (e *Engine) GoEach(name string, n int, fn func(p *Proc, i int)) *WaitGroup {
	wg := &WaitGroup{}
	wg.Add(n)
	for i := 0; i < n; i++ {
		i := i
		pr := e.Go(fmt.Sprintf("%s[%d]", name, i), func(p *Proc) {
			fn(p, i)
		})
		pr.OnDone(func() { wg.Done(pr) })
	}
	return wg
}
