package simstore

import (
	"nvmalloc/internal/cluster"
	"nvmalloc/internal/simtime"
	"nvmalloc/internal/store"
)

// Env adapts the deterministic virtual-time engine to the store.Env
// execution substrate consumed by internal/fusecache. The cooperative
// engine runs exactly one proc at a time, so Lock/Unlock are no-ops;
// futures, gates, and groups map directly onto the simtime primitives,
// which park and resume procs on the virtual clock.
func Env(eng *simtime.Engine) store.Env { return simEnv{eng: eng} }

type simEnv struct {
	eng *simtime.Engine
}

func (e simEnv) Lock(store.Ctx)   {}
func (e simEnv) Unlock(store.Ctx) {}

func (e simEnv) Go(_ store.Ctx, name string, fn func(store.Ctx)) {
	e.eng.Go(name, func(p *simtime.Proc) { fn(p) })
}

func (e simEnv) NewFuture(name string) store.Future {
	return simFuture{fut: simtime.NewFuture[struct{}](e.eng, name)}
}

func (e simEnv) NewGate(name string, width int) store.Gate {
	return simGate{res: simtime.NewResource(e.eng, name, width)}
}

func (e simEnv) NewGroup() store.Group {
	return &simGroup{eng: e.eng, wg: &simtime.WaitGroup{}}
}

// NowNanos reads the virtual clock, so spans recorded on the simulated
// path carry simulated (deterministic) timestamps and durations.
func (e simEnv) NowNanos(store.Ctx) int64 { return int64(e.eng.Now()) }

type simFuture struct {
	fut *simtime.Future[struct{}]
}

func (f simFuture) Set()               { f.fut.Set(struct{}{}) }
func (f simFuture) Wait(ctx store.Ctx) { f.fut.Wait(cluster.ProcOf(ctx)) }

type simGate struct {
	res *simtime.Resource
}

func (g simGate) Acquire(ctx store.Ctx) { g.res.Acquire(cluster.ProcOf(ctx)) }
func (g simGate) Release(ctx store.Ctx) { g.res.Release(cluster.ProcOf(ctx)) }

type simGroup struct {
	eng *simtime.Engine
	wg  *simtime.WaitGroup
}

func (g *simGroup) Go(_ store.Ctx, name string, fn func(store.Ctx)) {
	g.wg.Add(1)
	pr := g.eng.Go(name, func(p *simtime.Proc) { fn(p) })
	pr.OnDone(func() { g.wg.Done(pr) })
}

func (g *simGroup) Wait(ctx store.Ctx) { g.wg.Wait(cluster.ProcOf(ctx)) }
