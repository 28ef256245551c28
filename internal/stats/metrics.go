package stats

import "sync/atomic"

// Concurrency-safe instruments for the parallel harness and superd. Sample
// (stats.go) aggregates measurements after a run; these types are written
// from many worker goroutines while a run is in progress and read by a
// snapshot at the end, so they carry no locks — just atomics.

// Counter is an atomic event counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current count.
func (c *Counter) Load() int64 { return c.v.Load() }

// CounterSet is a fixed-width vector of atomic counters, indexed by a
// small enum or by position in a Fields table (Fields.Fold). Snapshot
// copies it for rendering.
type CounterSet struct{ v []atomic.Int64 }

// NewCounterSet returns a set with n slots.
func NewCounterSet(n int) *CounterSet { return &CounterSet{v: make([]atomic.Int64, n)} }

// Inc adds one to slot i; out-of-range indices are ignored.
func (s *CounterSet) Inc(i int) { s.Add(i, 1) }

// Add adds n to slot i; out-of-range indices are ignored.
func (s *CounterSet) Add(i int, n int64) {
	if s != nil && i >= 0 && i < len(s.v) {
		s.v[i].Add(n)
	}
}

// Snapshot copies the current counts.
func (s *CounterSet) Snapshot() []int64 {
	if s == nil {
		return nil
	}
	out := make([]int64, len(s.v))
	for i := range s.v {
		out[i] = s.v[i].Load()
	}
	return out
}

// HighWater tracks a current value and its maximum (e.g. units in flight).
type HighWater struct{ cur, max atomic.Int64 }

// Enter increments the current value and folds it into the maximum.
func (h *HighWater) Enter() {
	v := h.cur.Add(1)
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Exit decrements the current value.
func (h *HighWater) Exit() { h.cur.Add(-1) }

// Current returns the in-flight value.
func (h *HighWater) Current() int64 { return h.cur.Load() }

// Max returns the high-water mark.
func (h *HighWater) Max() int64 { return h.max.Load() }
