package workloads

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"nvmalloc/internal/cluster"
	"nvmalloc/internal/simtime"
	"nvmalloc/internal/sysprof"
)

func newDirectRig() (*simtime.Engine, *DirectSSD) {
	e := simtime.NewEngine()
	cl := cluster.New(e, sysprof.Bench())
	d := NewDirectSSD(cl.Nodes[0], "d", 256<<10, 512, 64<<10)
	return e, d
}

func TestDirectSSDRoundTrip(t *testing.T) {
	e, d := newDirectRig()
	e.Go("t", func(p *simtime.Proc) {
		want := bytes.Repeat([]byte{0xAD}, 3000)
		if err := d.WriteAt(p, 777, want); err != nil {
			t.Error(err)
			return
		}
		got := make([]byte, len(want))
		if err := d.ReadAt(p, 777, got); err != nil {
			t.Error(err)
			return
		}
		if !bytes.Equal(got, want) {
			t.Error("round trip mismatch")
		}
	})
	e.Run()
	if e.Now() == 0 {
		t.Fatal("no device time charged")
	}
}

func TestDirectSSDBoundsChecked(t *testing.T) {
	e, d := newDirectRig()
	e.Go("t", func(p *simtime.Proc) {
		if err := d.ReadAt(p, d.Size()-4, make([]byte, 8)); err == nil {
			t.Error("out-of-range read accepted")
		}
		if err := d.WriteAt(p, -1, []byte{1}); err == nil {
			t.Error("negative-offset write accepted")
		}
	})
	e.Run()
}

func TestDirectSSDSequentialBeatsRandom(t *testing.T) {
	timeFor := func(random bool) simtime.Time {
		e, d := newDirectRig()
		e.Go("t", func(p *simtime.Proc) {
			buf := make([]byte, 512)
			rng := rand.New(rand.NewSource(9))
			n := d.Size() / 512
			for i := int64(0); i < n; i++ {
				off := i * 512
				if random {
					off = rng.Int63n(n) * 512
				}
				if err := d.ReadAt(p, off, buf); err != nil {
					t.Error(err)
					return
				}
			}
		})
		e.Run()
		return e.Now()
	}
	seq, rnd := timeFor(false), timeFor(true)
	if seq >= rnd {
		t.Fatalf("sequential %v should beat random %v (kernel read-ahead)", seq, rnd)
	}
}

func TestDirectSSDSyncFlushesBatches(t *testing.T) {
	e, d := newDirectRig()
	e.Go("t", func(p *simtime.Proc) {
		before := d.node.SSD.Stats().Writes
		// Fewer pages than the write batch: nothing flushed yet.
		d.WriteAt(p, 0, make([]byte, 512*4))
		if d.node.SSD.Stats().Writes != before {
			t.Error("writes flushed before the batch filled")
		}
		d.Sync(p)
		if d.node.SSD.Stats().Writes == before {
			t.Error("sync did not flush")
		}
	})
	e.Run()
}

// Property: DirectSSD behaves as a flat byte array under random ops.
func TestDirectSSDMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e, d := newDirectRig()
		ref := make([]byte, d.Size())
		ok := true
		e.Go("t", func(p *simtime.Proc) {
			for op := 0; op < 80; op++ {
				off := rng.Int63n(d.Size() - 1)
				n := rng.Int63n(min(2000, d.Size()-off)) + 1
				if rng.Intn(2) == 0 {
					data := make([]byte, n)
					rng.Read(data)
					if d.WriteAt(p, off, data) != nil {
						ok = false
						return
					}
					copy(ref[off:], data)
				} else {
					got := make([]byte, n)
					if d.ReadAt(p, off, got) != nil {
						ok = false
						return
					}
					if !bytes.Equal(got, ref[off:off+n]) {
						ok = false
						return
					}
				}
			}
		})
		e.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
