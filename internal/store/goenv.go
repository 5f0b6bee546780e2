package store

import (
	"sync"
	"time"
)

// GoEnv is the real-world Env: a sync.Mutex for state, goroutines for
// tasks, channels for futures and gates. It is what the TCP deployment
// runs the shared fusecache on.
type GoEnv struct {
	mu    sync.Mutex
	tasks sync.WaitGroup
}

// NewGoEnv returns a goroutine-backed Env.
func NewGoEnv() *GoEnv { return &GoEnv{} }

func (e *GoEnv) Lock(Ctx)   { e.mu.Lock() }
func (e *GoEnv) Unlock(Ctx) { e.mu.Unlock() }

// Go spawns fn on a goroutine tracked by Quiesce.
func (e *GoEnv) Go(_ Ctx, _ string, fn func(Ctx)) {
	e.tasks.Add(1)
	go func() {
		defer e.tasks.Done()
		fn(nil)
	}()
}

// Quiesce blocks until every task spawned via Go has finished. Called on
// teardown so in-flight read-ahead does not outlive the store connection.
func (e *GoEnv) Quiesce() { e.tasks.Wait() }

func (e *GoEnv) NewFuture(string) Future { return &chanFuture{ch: make(chan struct{})} }

func (e *GoEnv) NewGate(_ string, width int) Gate {
	if width < 1 {
		width = 1
	}
	return chanGate(make(chan struct{}, width))
}

func (e *GoEnv) NewGroup() Group { return &wgGroup{} }

func (e *GoEnv) NowNanos(Ctx) int64 { return time.Now().UnixNano() }

type chanFuture struct {
	once sync.Once
	ch   chan struct{}
}

func (f *chanFuture) Set()     { f.once.Do(func() { close(f.ch) }) }
func (f *chanFuture) Wait(Ctx) { <-f.ch }

type chanGate chan struct{}

func (g chanGate) Acquire(Ctx) { g <- struct{}{} }
func (g chanGate) Release(Ctx) { <-g }

type wgGroup struct {
	wg sync.WaitGroup
}

func (g *wgGroup) Go(_ Ctx, _ string, fn func(Ctx)) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		fn(nil)
	}()
}

func (g *wgGroup) Wait(Ctx) { g.wg.Wait() }
