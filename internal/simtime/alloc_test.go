package simtime

import (
	"testing"
	"time"
)

// In steady state the engine's hot loop allocates nothing: a Sleep keeps
// its timer in the Proc, park reasons are not formatted, and the ready,
// Chan and Resource queues reuse their backing arrays. The measured proc
// runs AllocsPerRun itself, so the allocations of every proc it switches
// to (an echo server, a rival resource user) count too.
func TestSimtimeZeroAlloc(t *testing.T) {
	e := NewEngine()
	ping, pong := NewChan[int](e, "ping"), NewChan[int](e, "pong")
	dev := NewResource(e, "dev", 1)
	stop := false
	e.Go("echo", func(p *Proc) {
		for v := ping.Recv(p); v >= 0; v = ping.Recv(p) {
			pong.Send(v)
		}
	})
	e.Go("rival", func(p *Proc) { // keeps dev contended
		for !stop {
			dev.Use(p, time.Microsecond)
		}
	})
	e.Go("measure", func(p *Proc) {
		for _, c := range []struct {
			name string
			op   func()
		}{
			{"Sleep", func() { p.Sleep(time.Microsecond) }},
			{"Sleep(0)", func() { p.Sleep(0) }},
			{"Yield", p.Yield},
			{"Chan ping-pong", func() { ping.Send(1); pong.Recv(p) }},
			{"contended Resource.Use", func() { dev.Use(p, time.Microsecond) }},
		} {
			if n := testing.AllocsPerRun(200, c.op); n != 0 {
				t.Errorf("%s: %v allocs per op, want 0", c.name, n)
			}
		}
		stop = true
		ping.Send(-1)
	})
	e.Run()
}
