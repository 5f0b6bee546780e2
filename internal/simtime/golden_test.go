package simtime

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

// TestEventOrderGolden pins the engine's scheduling order: a script of
// same-time timer ties, Sleep(0), Yield, Chan/Future/Resource/WaitGroup
// wakes, Go from inside a proc, OnDone hooks and a second Run on the same
// engine logs (virtual time, proc, step) at every step, and the log must
// match testdata/event_order.golden exactly.
func TestEventOrderGolden(t *testing.T) {
	var log strings.Builder
	step := func(p *Proc, s string) { fmt.Fprintf(&log, "%v %s %s\n", p.Now(), p.Name(), s) }
	e := NewEngine()
	ch := NewChan[int](e, "ch")
	fut := NewFuture[string](e, "fut")
	res := NewResource(e, "res", 1)
	var wg WaitGroup

	for i := 0; i < 3; i++ { // ties at 1ms, then Sleep(0) and Yield at one instant
		wg.Add(1)
		e.Go(fmt.Sprintf("tie%d", i), func(p *Proc) {
			step(p, "start")
			p.Sleep(time.Millisecond)
			step(p, "woke")
			p.Sleep(0)
			step(p, "after sleep0")
			p.Yield()
			step(p, "after yield")
			wg.Done(p)
		})
	}
	for i := 0; i < 2; i++ { // two receivers, one queued behind the other
		e.Go(fmt.Sprintf("recv%d", i), func(p *Proc) {
			for k := 0; k < 2; k++ {
				step(p, fmt.Sprintf("got %d", ch.Recv(p)))
			}
		})
	}
	e.Go("send", func(p *Proc) {
		p.Sleep(time.Millisecond)
		for k := 1; k <= 3; k++ {
			ch.Send(k)
			step(p, fmt.Sprintf("sent %d", k))
		}
		p.Yield()
		ch.Send(4)
		step(p, "sent 4")
	})
	for i := 0; i < 2; i++ {
		e.Go(fmt.Sprintf("fwait%d", i), func(p *Proc) {
			step(p, "future "+fut.Wait(p))
		})
	}
	for i := 0; i < 3; i++ { // contended resource, FIFO hand-off
		e.Go(fmt.Sprintf("user%d", i), func(p *Proc) {
			p.Sleep(time.Duration(i) * time.Microsecond)
			res.Use(p, 2*time.Millisecond)
			step(p, "used res")
		})
	}
	e.Go("joiner", func(p *Proc) {
		wg.Wait(p)
		step(p, "ties joined")
	})
	e.Go("parent", func(p *Proc) {
		child := e.Go("child", func(c *Proc) {
			step(c, "child start")
			c.Sleep(500 * time.Microsecond)
			fut.Set("set by child")
			step(c, "child set future")
		})
		child.OnDone(func() { step(child, "child hook") })
		p.OnDone(func() { step(p, "parent hook") })
		step(p, "spawned child")
		p.Yield()
		step(p, "parent after yield")
	})
	e.Run()
	fmt.Fprintf(&log, "run 1 ends at %v\n", e.Now())

	e.Go("again", func(p *Proc) {
		step(p, "second run start")
		p.Sleep(time.Millisecond)
		res.Use(p, time.Millisecond)
		step(p, "second run done")
	})
	e.Go("again2", func(p *Proc) {
		p.Sleep(0)
		step(p, "second run sleep0")
	})
	e.Run()
	fmt.Fprintf(&log, "run 2 ends at %v\n", e.Now())

	want, err := os.ReadFile("testdata/event_order.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := log.String(); got != string(want) {
		t.Fatalf("event order changed:\n--- got\n%s--- want\n%s", got, want)
	}
}
