package stats

import (
	"strings"
	"testing"
	"time"
)

func TestPercentiles(t *testing.T) {
	s := &Sample{}
	for i := 1; i <= 100; i++ {
		s.AddInt(i)
	}
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 1},
		{0.5, 51},
		{0.9, 91},
		{0.99, 100},
		{1, 100},
	}
	for _, c := range cases {
		if got := s.Percentile(c.q); got != c.want {
			t.Errorf("P(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestEmptySample(t *testing.T) {
	s := &Sample{}
	if s.Percentile(0.5) != 0 || s.Max() != 0 || s.Mean() != 0 || s.Sum() != 0 {
		t.Error("empty sample should be all zeros")
	}
	if s.CDF(5) != nil {
		t.Error("empty CDF should be nil")
	}
}

func TestMeanSum(t *testing.T) {
	s := &Sample{}
	s.Add(1)
	s.Add(2)
	s.Add(3)
	if s.Sum() != 6 || s.Mean() != 2 {
		t.Errorf("sum=%v mean=%v", s.Sum(), s.Mean())
	}
}

func TestAddDuration(t *testing.T) {
	s := &Sample{}
	s.AddDuration(1500 * time.Millisecond)
	if s.Max() != 1.5 {
		t.Errorf("duration = %v", s.Max())
	}
}

func TestTable3Row(t *testing.T) {
	s := &Sample{}
	for i := 0; i < 100; i++ {
		s.AddInt(34000)
	}
	row := s.Table3Row()
	if !strings.Contains(row, "34k") || strings.Count(row, "·") != 2 {
		t.Errorf("row = %q", row)
	}
	small := &Sample{}
	small.AddInt(5)
	if got := small.Table3Row(); got != "5 · 5 · 5" {
		t.Errorf("small row = %q", got)
	}
}

func TestCDFMonotone(t *testing.T) {
	s := &Sample{}
	for _, v := range []float64{5, 1, 3, 2, 4} {
		s.Add(v)
	}
	pts := s.CDF(5)
	if len(pts) != 5 {
		t.Fatalf("points = %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Value < pts[i-1].Value || pts[i].Fraction <= pts[i-1].Fraction {
			t.Errorf("CDF not monotone at %d: %+v", i, pts)
		}
	}
	if pts[4].Value != 5 || pts[4].Fraction != 1 {
		t.Errorf("last point %+v", pts[4])
	}
}

func TestRenderCDF(t *testing.T) {
	s := &Sample{}
	s.Add(1)
	s.Add(2)
	out := RenderCDF("demo", s, 2)
	if !strings.Contains(out, "demo (n=2)") || !strings.Contains(out, "100%") {
		t.Errorf("render = %q", out)
	}
}

func TestHistogram(t *testing.T) {
	h := Hist{1: 3, 5: 1}
	if h.Len() != 4 {
		t.Fatalf("len = %d", h.Len())
	}
	if h.Percentile(1) != 5 || h.Percentile(0.5) != 1 {
		t.Errorf("max=%v p50=%v", h.Percentile(1), h.Percentile(0.5))
	}
	if (Hist{}).Percentile(0.99) != 0 || (Hist{}).CDF(4) != nil {
		t.Error("empty histogram should be all zeros")
	}
}

// TestHistMatchesExpandedSample pins Hist to the Sample holding every
// observation it counts: the same nearest-rank percentiles (Figure 8a's
// 99th and max, superc's p99) and the same CDF (Figure 8b).
func TestHistMatchesExpandedSample(t *testing.T) {
	for _, h := range []Hist{
		{1: 90, 2: 9, 10: 1},
		{1: 42000, 2: 800, 3: 50, 6: 10},
		{7: 1},
		{1: 3, 2: 0, 4: 2},
	} {
		s := &Sample{}
		for v, n := range h {
			for i := 0; i < n; i++ {
				s.AddInt(v)
			}
		}
		if h.Len() != s.Len() {
			t.Fatalf("%v: Len %d vs %d", h, h.Len(), s.Len())
		}
		for _, q := range []float64{0, 0.1, 0.5, 0.9, 0.99, 0.999, 1} {
			if got, want := h.Percentile(q), int(s.Percentile(q)); got != want {
				t.Errorf("%v: P(%v) = %d, expanded %d", h, q, got, want)
			}
		}
		for _, points := range []int{1, 3, 10} {
			got, want := h.CDF(points), s.CDF(points)
			if len(got) != len(want) {
				t.Fatalf("%v: CDF(%d) has %d points, expanded %d", h, points, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("%v: CDF(%d)[%d] = %+v, expanded %+v", h, points, i, got[i], want[i])
				}
			}
		}
		if got, want := RenderCDF("h", h, 10), RenderCDF("h", s, 10); got != want {
			t.Errorf("%v: rendered CDF differs:\n%s\nexpanded:\n%s", h, got, want)
		}
	}
}
