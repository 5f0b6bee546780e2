package simtime

import (
	"testing"
	"testing/quick"
	"time"
)

func TestSleepAdvancesClock(t *testing.T) {
	e := NewEngine()
	var end Time
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		p.Sleep(7 * time.Millisecond)
		end = p.Now()
	})
	e.Run()
	if want := Time(12 * time.Millisecond); end != want {
		t.Fatalf("end = %v, want %v", end, want)
	}
	if e.Now() != end {
		t.Fatalf("engine now = %v, want %v", e.Now(), end)
	}
}

func TestTimerOrderingDeterministic(t *testing.T) {
	var order []int
	e := NewEngine()
	for i := 0; i < 8; i++ {
		i := i
		e.Go("p", func(p *Proc) {
			p.Sleep(time.Duration(8-i) * time.Millisecond)
			order = append(order, i)
		})
	}
	e.Run()
	for k, v := range order {
		if v != 7-k {
			t.Fatalf("order = %v, want descending spawn index by wake time", order)
		}
	}
}

func TestSameTimeTiesBreakBySpawnOrder(t *testing.T) {
	var order []int
	e := NewEngine()
	for i := 0; i < 5; i++ {
		i := i
		e.Go("p", func(p *Proc) {
			p.Sleep(time.Millisecond)
			order = append(order, i)
		})
	}
	e.Run()
	for k, v := range order {
		if v != k {
			t.Fatalf("order = %v, want spawn order on ties", order)
		}
	}
}

func TestYieldInterleaves(t *testing.T) {
	var trace []string
	e := NewEngine()
	e.Go("a", func(p *Proc) {
		trace = append(trace, "a1")
		p.Yield()
		trace = append(trace, "a2")
	})
	e.Go("b", func(p *Proc) {
		trace = append(trace, "b1")
		p.Yield()
		trace = append(trace, "b2")
	})
	e.Run()
	want := []string{"a1", "b1", "a2", "b2"}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestChanFIFO(t *testing.T) {
	e := NewEngine()
	c := NewChan[int](e, "c")
	var got []int
	e.Go("recv", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, c.Recv(p))
		}
	})
	e.Go("send", func(p *Proc) {
		p.Sleep(time.Millisecond)
		c.Send(1)
		c.Send(2)
		c.Send(3)
	})
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("got %v, want [1 2 3]", got)
	}
}

func TestChanMultipleReceivers(t *testing.T) {
	e := NewEngine()
	c := NewChan[int](e, "c")
	sum := 0
	for i := 0; i < 4; i++ {
		e.Go("recv", func(p *Proc) {
			sum += c.Recv(p)
		})
	}
	e.Go("send", func(p *Proc) {
		p.Sleep(time.Millisecond)
		for i := 1; i <= 4; i++ {
			c.Send(i)
		}
	})
	e.Run()
	if sum != 10 {
		t.Fatalf("sum = %d, want 10", sum)
	}
}

func TestResourceSerializes(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "dev", 1)
	var ends []Time
	for i := 0; i < 3; i++ {
		e.Go("user", func(p *Proc) {
			r.Use(p, 10*time.Millisecond)
			ends = append(ends, p.Now())
		})
	}
	e.Run()
	want := []Time{Time(10 * time.Millisecond), Time(20 * time.Millisecond), Time(30 * time.Millisecond)}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends = %v, want %v", ends, want)
		}
	}
	if r.BusyTime() != 30*time.Millisecond {
		t.Fatalf("busy = %v, want 30ms", r.BusyTime())
	}
	if u := r.Utilization(); u < 0.999 || u > 1.001 {
		t.Fatalf("utilization = %v, want 1.0", u)
	}
}

func TestResourceCapacityTwoRunsPairsConcurrently(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "dev", 2)
	var ends []Time
	for i := 0; i < 4; i++ {
		e.Go("user", func(p *Proc) {
			r.Use(p, 10*time.Millisecond)
			ends = append(ends, p.Now())
		})
	}
	e.Run()
	if e.Now() != Time(20*time.Millisecond) {
		t.Fatalf("makespan = %v, want 20ms", e.Now())
	}
}

func TestResourceFIFOOrder(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "dev", 1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.Go("user", func(p *Proc) {
			p.Sleep(time.Duration(i) * time.Microsecond) // arrive in index order
			r.Acquire(p)
			p.Sleep(time.Millisecond)
			order = append(order, i)
			r.Release(p)
		})
	}
	e.Run()
	for k, v := range order {
		if v != k {
			t.Fatalf("order = %v, want arrival order", order)
		}
	}
}

func TestWaitGroup(t *testing.T) {
	e := NewEngine()
	done := 0
	wg := e.GoEach("w", 5, func(p *Proc, i int) {
		p.Sleep(time.Duration(i+1) * time.Millisecond)
		done++
	})
	var joinedAt Time
	e.Go("joiner", func(p *Proc) {
		wg.Wait(p)
		joinedAt = p.Now()
	})
	e.Run()
	if done != 5 {
		t.Fatalf("done = %d, want 5", done)
	}
	if joinedAt != Time(5*time.Millisecond) {
		t.Fatalf("joinedAt = %v, want 5ms", joinedAt)
	}
}

func TestFuture(t *testing.T) {
	e := NewEngine()
	f := NewFuture[string](e, "f")
	var got string
	var at Time
	e.Go("waiter", func(p *Proc) {
		got = f.Wait(p)
		at = p.Now()
	})
	e.Go("setter", func(p *Proc) {
		p.Sleep(3 * time.Millisecond)
		f.Set("hello")
	})
	e.Run()
	if got != "hello" || at != Time(3*time.Millisecond) {
		t.Fatalf("got %q at %v", got, at)
	}
}

func TestDeadlockPanics(t *testing.T) {
	const want = "simtime: deadlock: 5 proc(s) blocked at t=1ms: fw (on future unset); " +
		"holder (on chan never); stuck (on chan never); waiter (on resource dev); wg (on waitgroup);"
	defer func() {
		if got := recover(); got != want {
			t.Fatalf("panic %q, want %q", got, want)
		}
	}()
	e := NewEngine()
	c := NewChan[int](e, "never")
	f := NewFuture[int](e, "unset")
	r := NewResource(e, "dev", 1)
	var wg WaitGroup
	wg.Add(1)
	e.Go("stuck", func(p *Proc) { c.Recv(p) })
	e.Go("fw", func(p *Proc) { f.Wait(p) })
	e.Go("wg", func(p *Proc) { wg.Wait(p) })
	e.Go("holder", func(p *Proc) {
		r.Acquire(p)
		p.Sleep(time.Millisecond)
		c.Recv(p)
	})
	e.Go("waiter", func(p *Proc) { r.Acquire(p) })
	e.Run()
}

func TestSpawnFromProc(t *testing.T) {
	e := NewEngine()
	total := 0
	e.Go("parent", func(p *Proc) {
		wg := &WaitGroup{}
		for i := 0; i < 3; i++ {
			wg.Add(1)
			child := e.Go("child", func(cp *Proc) {
				cp.Sleep(time.Millisecond)
				total++
			})
			child.OnDone(func() { wg.Done(child) })
		}
		wg.Wait(p)
		total *= 10
	})
	e.Run()
	if total != 30 {
		t.Fatalf("total = %d, want 30", total)
	}
}

// TestDeterminism runs a moderately complex actor system twice and checks
// that the trace is identical.
func TestDeterminism(t *testing.T) {
	run := func() []int {
		var trace []int
		e := NewEngine()
		r := NewResource(e, "dev", 2)
		c := NewChan[int](e, "work")
		for w := 0; w < 3; w++ {
			w := w
			e.Go("worker", func(p *Proc) {
				for i := 0; i < 4; i++ {
					v := c.Recv(p)
					r.Use(p, time.Duration(v)*time.Microsecond)
					trace = append(trace, w*100+v)
				}
			})
		}
		e.Go("producer", func(p *Proc) {
			for i := 1; i <= 12; i++ {
				c.Send(i)
				p.Sleep(time.Microsecond)
			}
		})
		e.Run()
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) != 12 {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a, b)
		}
	}
}

// Property: for any set of sleep durations, the engine finishes at the max
// duration and every proc observes its own wake time exactly.
func TestSleepProperty(t *testing.T) {
	f := func(durs []uint16) bool {
		if len(durs) == 0 {
			return true
		}
		if len(durs) > 64 {
			durs = durs[:64]
		}
		e := NewEngine()
		okAll := true
		var maxD time.Duration
		for _, d := range durs {
			d := time.Duration(d) * time.Microsecond
			if d > maxD {
				maxD = d
			}
			e.Go("s", func(p *Proc) {
				p.Sleep(d)
				if p.Now() != Time(d) {
					okAll = false
				}
			})
		}
		e.Run()
		return okAll && e.Now() == Time(maxD)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: a capacity-1 resource used by n procs for d each has makespan
// n*d and busy time n*d.
func TestResourceMakespanProperty(t *testing.T) {
	f := func(n uint8, d uint16) bool {
		procs := int(n%16) + 1
		dur := time.Duration(d%1000+1) * time.Microsecond
		e := NewEngine()
		r := NewResource(e, "dev", 1)
		for i := 0; i < procs; i++ {
			e.Go("u", func(p *Proc) { r.Use(p, dur) })
		}
		e.Run()
		return e.Now() == Time(time.Duration(procs)*dur) && r.BusyTime() == time.Duration(procs)*dur
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
