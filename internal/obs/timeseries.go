package obs

import (
	"strings"
	"sync"
	"time"
)

// DefaultSeriesSamples is the sample capacity of series made by
// StartMonitor when MonitorConfig.History is zero. At the default 1s
// sampling cadence it retains five minutes of history.
const DefaultSeriesSamples = 300

// Series is a bounded ring of periodic Registry snapshots — the
// time-series substrate of the continuous-monitoring layer. Samples are
// appended by the monitor goroutine (StartMonitor) and read concurrently
// by the alert-rule evaluator, the /vitals endpoint, and tests; every
// method is safe for concurrent use and nil-safe.
//
// All derived math (counter deltas, windowed histograms) pairs the newest
// sample with the newest sample at least `window` older, so answers are
// "over the last N seconds" rather than "since boot". Counter resets — a
// daemon restart hands the scraper a smaller value than it saw before —
// are handled by treating the post-reset value as the whole delta: the
// increments lost to the restart are unknowable, and under-counting one
// window beats a huge negative rate.
type Series struct {
	mu   sync.Mutex
	buf  []Snapshot
	next int64 // total samples ever appended
}

// NewSeries returns a series retaining the last capacity samples (min 2;
// capacity <= 0 gets DefaultSeriesSamples).
func NewSeries(capacity int) *Series {
	if capacity <= 0 {
		capacity = DefaultSeriesSamples
	}
	if capacity < 2 {
		capacity = 2
	}
	return &Series{buf: make([]Snapshot, 0, capacity)}
}

// Add appends one sample, overwriting the oldest once full.
func (s *Series) Add(snap Snapshot) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.buf) < cap(s.buf) {
		s.buf = append(s.buf, snap)
	} else {
		s.buf[s.next%int64(cap(s.buf))] = snap
	}
	s.next++
}

// Len returns the number of samples currently retained.
func (s *Series) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.buf)
}

// Last returns the newest sample.
func (s *Series) Last() (Snapshot, bool) {
	if s == nil {
		return Snapshot{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.buf) == 0 {
		return Snapshot{}, false
	}
	return s.buf[(s.next-1)%int64(cap(s.buf))], true
}

// Samples returns the retained samples, oldest first.
func (s *Series) Samples() []Snapshot {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Snapshot, 0, len(s.buf))
	start := s.next - int64(len(s.buf))
	for i := start; i < s.next; i++ {
		out = append(out, s.buf[i%int64(cap(s.buf))])
	}
	return out
}

// Window returns the newest sample and the most recent sample at least
// window older than it (falling back to the oldest retained when history
// is shorter than the window). ok is false with fewer than two samples —
// no interval exists to difference over.
func (s *Series) Window(window time.Duration) (oldest, newest Snapshot, ok bool) {
	if s == nil {
		return Snapshot{}, Snapshot{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.buf) < 2 {
		return Snapshot{}, Snapshot{}, false
	}
	start := s.next - int64(len(s.buf))
	newest = s.buf[(s.next-1)%int64(cap(s.buf))]
	cutoff := newest.UnixNanos - window.Nanoseconds()
	oldest = s.buf[start%int64(cap(s.buf))]
	// Walk newest-ward: the last sample at or before the cutoff is the
	// tightest window base; stop before the newest itself.
	for i := start; i < s.next-1; i++ {
		sm := s.buf[i%int64(cap(s.buf))]
		if sm.UnixNanos > cutoff {
			break
		}
		oldest = sm
	}
	return oldest, newest, true
}

// CounterDelta returns how much the named counter grew between two
// samples. A counter that shrank (daemon restart reset it) contributes
// its post-reset value: everything it counted since the restart.
func CounterDelta(oldest, newest Snapshot, name string) int64 {
	nv := newest.Counters[name]
	ov := oldest.Counters[name]
	if nv < ov {
		return nv
	}
	return nv - ov
}

// GaugeLast returns the named gauge's value in the newest sample.
func (s *Series) GaugeLast(name string) (int64, bool) {
	last, ok := s.Last()
	if !ok {
		return 0, false
	}
	v, present := last.Gauges[name]
	return v, present
}

// WindowHistogram returns the histogram of observations recorded between
// two samples: the bucket-wise difference of the cumulative snapshots,
// with headline quantiles recomputed over just that window. A reset (any
// bucket or the total count went backwards — daemon restart) degrades to
// the newest cumulative snapshot, the same "post-reset data only" rule as
// CounterDelta. The result merges with other nodes' windowed histograms
// via HistogramSnapshot.Merge, which is how nvmctl watch builds cluster
// percentiles over the last N seconds.
func WindowHistogram(oldest, newest Snapshot, name string) HistogramSnapshot {
	hn := newest.Histograms[name]
	ho := oldest.Histograms[name]
	if ho.Count == 0 || len(ho.Counts) != len(hn.Counts) {
		return hn
	}
	if hn.Count < ho.Count {
		return hn
	}
	out := HistogramSnapshot{
		Count:       hn.Count - ho.Count,
		SumNanos:    hn.SumNanos - ho.SumNanos,
		BoundsNanos: hn.BoundsNanos,
		Counts:      make([]int64, len(hn.Counts)),
	}
	for i := range hn.Counts {
		d := hn.Counts[i] - ho.Counts[i]
		if d < 0 {
			return hn
		}
		out.Counts[i] = d
	}
	if out.SumNanos < 0 {
		out.SumNanos = 0
	}
	out.P50Nanos = out.Quantile(0.50).Nanoseconds()
	out.P95Nanos = out.Quantile(0.95).Nanoseconds()
	out.P99Nanos = out.Quantile(0.99).Nanoseconds()
	return out
}

// MaxQuantileOverWindow returns the largest windowed q-quantile across
// every histogram whose name starts with prefix — "the worst p99 of any
// manager op over the last 30s". ok is false when no matching histogram
// saw an observation in the window.
func (s *Series) MaxQuantileOverWindow(prefix string, q float64, window time.Duration) (nanos float64, ok bool) {
	o, n, wok := s.Window(window)
	if !wok {
		return 0, false
	}
	for name := range n.Histograms {
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		h := WindowHistogram(o, n, name)
		if h.Count == 0 {
			continue
		}
		if v := float64(h.Quantile(q).Nanoseconds()); !ok || v > nanos {
			nanos, ok = v, true
		}
	}
	return nanos, ok
}
