// Package stats provides the small statistics toolkit behind the
// evaluation harness and superd: percentiles over per-unit measurements
// (Table 3's 50th·90th·100th format), cumulative distributions (Figures 8b
// and 9), and the metrics registry every surface renders.
//
// Three kinds of tools live here with different concurrency rules:
//
//   - Sample and Hist (this file) hold observations after the fact and are
//     NOT safe for concurrent use; both answer percentiles and CDFs by the
//     same nearest-rank rule, Sample over raw values and Hist over a
//     value→count histogram (Figure 8's per-iteration subparser counts).
//   - Counter, CounterSet and HighWater (metrics.go) are lock-free atomics
//     written by worker goroutines while a run or request is in flight.
//   - Registry and Snapshot (registry.go) declare each counter, gauge and
//     duration once — name, help text, kind — and render one fixed-order
//     snapshot as the harness's text block, superd's /v1/stats map and its
//     Prometheus /metrics text.
package stats

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Sample is a collection of observations.
type Sample struct {
	values []float64
	sorted bool
}

// Add appends an observation.
func (s *Sample) Add(v float64) {
	s.values = append(s.values, v)
	s.sorted = false
}

// AddInt appends an integer observation.
func (s *Sample) AddInt(v int) { s.Add(float64(v)) }

// AddDuration appends a duration in seconds.
func (s *Sample) AddDuration(d time.Duration) { s.Add(d.Seconds()) }

// Len returns the number of observations.
func (s *Sample) Len() int { return len(s.values) }

func (s *Sample) sort() {
	if !s.sorted {
		sort.Float64s(s.values)
		s.sorted = true
	}
}

// Percentile returns the q-quantile (0 ≤ q ≤ 1) by the nearest-rank method;
// Percentile(1) is the maximum.
func (s *Sample) Percentile(q float64) float64 {
	if len(s.values) == 0 {
		return 0
	}
	s.sort()
	return s.values[rank(q, len(s.values))]
}

// rank is the 0-based index of the nearest-rank q-quantile among n > 0
// sorted observations: q ≤ 0 is the minimum, q ≥ 1 the maximum.
func rank(q float64, n int) int {
	i := int(q * float64(n))
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// Sum returns the total of all observations.
func (s *Sample) Sum() float64 {
	total := 0.0
	for _, v := range s.values {
		total += v
	}
	return total
}

// Mean returns the arithmetic mean.
func (s *Sample) Mean() float64 {
	if len(s.values) == 0 {
		return 0
	}
	return s.Sum() / float64(len(s.values))
}

// Max returns the largest observation.
func (s *Sample) Max() float64 { return s.Percentile(1) }

// Table3Row renders the paper's Table 3 percentile format:
// "50th · 90th · 100th" across compilation units.
func (s *Sample) Table3Row() string {
	return fmt.Sprintf("%s · %s · %s",
		compact(s.Percentile(0.5)), compact(s.Percentile(0.9)), compact(s.Percentile(1)))
}

// compact renders a count the way the paper does: "34k" beyond 10,000.
func compact(v float64) string {
	if v >= 10000 {
		return fmt.Sprintf("%.0fk", v/1000)
	}
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.2f", v)
}

// CDFPoint is one point of a cumulative distribution.
type CDFPoint struct {
	Value    float64
	Fraction float64 // fraction of observations ≤ Value
}

// CDF returns up to points evenly spaced cumulative-distribution samples.
func (s *Sample) CDF(points int) []CDFPoint {
	s.sort()
	return cdf(points, len(s.values), func(i int) float64 { return s.values[i] })
}

// cdf samples the distribution of n sorted observations at points evenly
// spaced fractions; at returns the observation of 0-based rank i.
func cdf(points, n int, at func(i int) float64) []CDFPoint {
	if n == 0 || points <= 0 {
		return nil
	}
	out := make([]CDFPoint, 0, points)
	for i := 1; i <= points; i++ {
		frac := float64(i) / float64(points)
		idx := int(frac*float64(n)) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= n {
			idx = n - 1
		}
		out = append(out, CDFPoint{Value: at(idx), Fraction: frac})
	}
	return out
}

// Distribution is what RenderCDF draws: a Sample or a Hist.
type Distribution interface {
	Len() int
	CDF(points int) []CDFPoint
}

// RenderCDF prints a textual CDF table with a header, matching the
// harness's figure output style.
func RenderCDF(name string, s Distribution, points int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (n=%d)\n", name, s.Len())
	fmt.Fprintf(&b, "%10s  %8s\n", "fraction", "value")
	for _, pt := range s.CDF(points) {
		fmt.Fprintf(&b, "%9.0f%%  %8.3g\n", pt.Fraction*100, pt.Value)
	}
	return b.String()
}

// Hist is a histogram of integer observations: value → number of times
// observed. Its percentiles and CDF are those of the Sample holding every
// observation, without expanding them.
type Hist map[int]int

// Len returns the number of observations.
func (h Hist) Len() int {
	n := 0
	for _, c := range h {
		n += c
	}
	return n
}

// Percentile returns the q-quantile (0 ≤ q ≤ 1) by the nearest-rank
// method; Percentile(1) is the maximum and an empty histogram gives 0.
func (h Hist) Percentile(q float64) int {
	if n := h.Len(); n > 0 {
		return h.at(rank(q, n))
	}
	return 0
}

// CDF returns up to points evenly spaced cumulative-distribution samples.
func (h Hist) CDF(points int) []CDFPoint {
	return cdf(points, h.Len(), func(i int) float64 { return float64(h.at(i)) })
}

// at returns the observation of 0-based rank i < h.Len().
func (h Hist) at(i int) int {
	vals := make([]int, 0, len(h))
	for v := range h {
		vals = append(vals, v)
	}
	sort.Ints(vals)
	for _, v := range vals {
		if i -= h[v]; i < 0 {
			return v
		}
	}
	return vals[len(vals)-1]
}
