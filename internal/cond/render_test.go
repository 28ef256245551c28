package cond

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/guard"
)

// parity returns x0 ⊕ … ⊕ x(n-1): a BDD of 2n nodes with 2^(n-1) paths to
// True, and a SAT expression DAG of O(n) nodes whose tree is exponential.
func parity(s *Space, n int) Cond {
	p := s.False()
	for i := 0; i < n; i++ {
		v := s.Var(fmt.Sprintf("(defined X%d)", i))
		p = s.Or(s.And(p, s.Not(v)), s.And(s.Not(p), v))
	}
	return p
}

// TestStringBounded pins that presence-condition rendering is bounded: a
// parity condition over 40 variables renders in bounded bytes and time in
// both modes, also when a budget trip records it, and conditions at or
// under the limit render in full.
func TestStringBounded(t *testing.T) {
	for _, m := range bothModes {
		t.Run(m.name, func(t *testing.T) {
			s := NewSpace(m.mode)
			p := parity(s, 40)
			start := time.Now()
			str := s.String(p)
			if len(str) > 64<<10 {
				t.Fatalf("parity(40) renders in %d bytes", len(str))
			}
			want := " | … (+549755813872 cubes)" // 2^39 cubes, 16 printed
			if m.mode == ModeSAT {
				want = " nodes)"
			}
			if !strings.HasSuffix(str, want) {
				t.Fatalf("parity(40) renders as %q; want the suffix %q", str, want)
			}

			b := guard.New(context.Background(), guard.Limits{Hoist: 1})
			b.Charge("test", guard.AxisHoist, 2)
			b.Annotate(s.String(p), "")
			if d := b.Trip(); d == nil || d.Cond == "" || len(d.Cond) > 64<<10 {
				t.Fatalf("trip annotation: %+v", d)
			}
			if el := time.Since(start); el > 10*time.Second {
				t.Fatalf("rendering parity(40) took %v", el)
			}
		})
	}
}

// TestStringLimit pins the boundary: at the limit a condition renders in
// full, one past it the rest is elided and counted.
func TestStringLimit(t *testing.T) {
	s := NewSpace(ModeBDD)
	if str := s.String(parity(s, 5)); strings.Contains(str, "…") || strings.Count(str, " | ") != 15 {
		t.Fatalf("16 cubes render as %q; want all 16", str)
	}
	if str := s.String(parity(s, 6)); strings.Count(str, " | ") != 16 || !strings.HasSuffix(str, " | … (+16 cubes)") {
		t.Fatalf("32 cubes render as %q; want 16 and (+16 cubes)", str)
	}

	s = NewSpace(ModeSAT)
	or := func(n int) Cond {
		c := s.False()
		for i := 0; i < n; i++ {
			c = s.Or(c, s.Var(fmt.Sprintf("V%d", i)))
		}
		return c
	}
	// A disjunction of n variables is one node with n operands.
	if str := s.String(or(1023)); strings.Contains(str, "…") || !strings.HasSuffix(str, " || V1022") {
		t.Fatalf("a 1024-node expression renders as %q; want it in full", str)
	}
	if str := s.String(or(1024)); !strings.HasSuffix(str, " || V1022 || … (+1 nodes)") {
		t.Fatalf("a 1025-node expression renders as %q; want the last operand elided", str)
	}
}
