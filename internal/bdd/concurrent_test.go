package bdd

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// formulaProg is one deterministic formula-building program: a sequence of
// operations over a fixed variable set, interpreted against any factory.
// Programs are the unit of sharing in the concurrency tests — the same
// program run on two factories (or twice on one) must produce semantically
// identical diagrams.
type formulaProg struct {
	ops []progOp
}

type progOp struct {
	kind    int // 0 and, 1 or, 2 xor, 3 not, 4 pushVar
	a, b    int // operand stack depths (from top) for binary ops
	varIdx  int
	popBoth bool
}

func genProg(r *rand.Rand, nvars, steps int) formulaProg {
	var p formulaProg
	depth := 0
	for i := 0; i < steps || depth != 1; i++ {
		if depth < 2 || (depth < 8 && r.Intn(3) == 0 && i < steps) {
			p.ops = append(p.ops, progOp{kind: 4, varIdx: r.Intn(nvars)})
			depth++
			continue
		}
		k := r.Intn(4)
		p.ops = append(p.ops, progOp{kind: k})
		if k != 3 {
			depth--
		}
	}
	return p
}

// runProg interprets a program against the production factory using
// pre-created variables vs (so no variable-order races).
func runProg(f *Factory, vs []Node, p formulaProg) Node {
	var stack []Node
	for _, op := range p.ops {
		switch op.kind {
		case 4:
			stack = append(stack, vs[op.varIdx])
		case 3:
			stack[len(stack)-1] = f.Not(stack[len(stack)-1])
		default:
			a, b := stack[len(stack)-2], stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			switch op.kind {
			case 0:
				stack[len(stack)-1] = f.And(a, b)
			case 1:
				stack[len(stack)-1] = f.Or(a, b)
			case 2:
				stack[len(stack)-1] = f.Xor(a, b)
			}
		}
	}
	return stack[0]
}

// runProgRef interprets the same program against the naive reference factory.
func runProgRef(rf *refFactory, vs []Node, p formulaProg) Node {
	var stack []Node
	for _, op := range p.ops {
		switch op.kind {
		case 4:
			stack = append(stack, vs[op.varIdx])
		case 3:
			stack[len(stack)-1] = rf.not(stack[len(stack)-1])
		default:
			a, b := stack[len(stack)-2], stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			switch op.kind {
			case 0:
				stack[len(stack)-1] = rf.apply(opAnd, a, b)
			case 1:
				stack[len(stack)-1] = rf.apply(opOr, a, b)
			case 2:
				stack[len(stack)-1] = rf.apply(opXor, a, b)
			}
		}
	}
	return stack[0]
}

// TestConcurrentAgreesWithReference is the sharded-factory soundness
// property: N goroutines concurrently building overlapping random formulas
// on one shared factory must agree with the single-threaded naive reference
// on (1) the rendered structure and SatCount of every result, (2) canonical
// handle identity — programs the reference proves semantically equal must
// return the *same* Node id from the shared factory no matter which
// goroutines ran them — and (3) the total unique node count: concurrent
// hash-consing may never duplicate a triple or invent nodes the reference
// does not have.
func TestConcurrentAgreesWithReference(t *testing.T) {
	const nvars, nprogs = 8, 96
	names := []string{"A", "B", "C", "D", "E", "F", "G", "H"}
	r := rand.New(rand.NewSource(1234))
	progs := make([]formulaProg, nprogs)
	for i := range progs {
		progs[i] = genProg(r, nvars, 6+r.Intn(20))
	}
	// Duplicate a third of the programs so goroutines provably overlap.
	for i := 0; i < nprogs/3; i++ {
		progs[nprogs-1-i] = progs[i]
	}

	// Single-threaded oracle runs.
	rf := newRefFactory()
	rvs := make([]Node, nvars)
	for i, n := range names {
		rvs[i] = rf.variable(n)
	}
	wantStr := make([]string, nprogs)
	wantCount := make([]float64, nprogs)
	wantRef := make([]Node, nprogs)
	for i, p := range progs {
		w := runProgRef(rf, rvs, p)
		wantRef[i] = w
		wantStr[i] = refString(rf, w)
		wantCount[i] = rf.fullSatCount(w)
	}

	for _, workers := range []int{2, 4, 8} {
		f := NewFactory()
		vs := make([]Node, nvars)
		for i, n := range names {
			vs[i] = f.Var(n)
		}
		got := make([]Node, nprogs)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < nprogs; i += workers {
					got[i] = runProg(f, vs, progs[i])
				}
			}(w)
		}
		wg.Wait()

		for i := range progs {
			if gs := f.render(got[i], math.MaxInt); gs != wantStr[i] {
				t.Fatalf("workers=%d prog %d: structure %q, reference %q", workers, i, gs, wantStr[i])
			}
			if gc := f.SatCount(got[i]); gc != wantCount[i] {
				t.Fatalf("workers=%d prog %d: SatCount %g, reference %g", workers, i, gc, wantCount[i])
			}
		}
		// Canonicity transfer across goroutines: reference-equal programs
		// must share one id in the concurrent factory, distinct ones must not.
		for i := 0; i < nprogs; i++ {
			for j := i + 1; j < nprogs; j++ {
				if (wantRef[i] == wantRef[j]) != (got[i] == got[j]) {
					t.Fatalf("workers=%d: canonicity divergence between progs %d and %d (ref %v/%v, got %v/%v)",
						workers, i, j, wantRef[i], wantRef[j], got[i], got[j])
				}
			}
		}
		// The demanded triple set is interleaving-independent, so the node
		// count must match the reference exactly even though id numbering
		// may differ run to run.
		if f.NumNodes() != len(rf.nodes) {
			t.Fatalf("workers=%d: %d nodes, reference has %d", workers, f.NumNodes(), len(rf.nodes))
		}
	}
}

// TestConcurrentSingleStripeContention funnels every insert into one hash
// stripe: the test precomputes which (level, lo, hi) triples land in a
// chosen stripe and has all goroutines allocate exactly those, repeatedly,
// through mk. This maximizes lock contention and forces that stripe to grow
// several times mid-race; every goroutine must still observe one canonical
// id per triple.
func TestConcurrentSingleStripeContention(t *testing.T) {
	f := NewFactory()
	// Candidate triples (lvl, False, True) are structurally var roots; mk
	// accepts them without names existing (String/VarName are never called).
	const wantStripe = 7
	var levels []int32
	for lvl := int32(0); len(levels) < 192; lvl++ {
		if hashTriple(uint32(lvl), uint32(False), uint32(True))&stripeMask == wantStripe {
			levels = append(levels, lvl)
		}
	}

	const workers = 8
	ids := make([][]Node, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			ids[w] = make([]Node, len(levels))
			for rep := 0; rep < 50; rep++ {
				for _, i := range r.Perm(len(levels)) {
					id := f.mk(levels[i], False, True)
					if ids[w][i] == 0 {
						ids[w][i] = id
					} else if ids[w][i] != id {
						t.Errorf("worker %d: triple %d changed id %d -> %d", w, i, ids[w][i], id)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for w := 1; w < workers; w++ {
		for i := range levels {
			if ids[0][i] != ids[w][i] {
				t.Fatalf("triple %d: worker 0 got %d, worker %d got %d", i, ids[0][i], w, ids[w][i])
			}
		}
	}
	if got := f.NumNodes(); got != 2+len(levels) {
		t.Fatalf("allocated %d nodes, want %d (duplicate insert under contention)", got, 2+len(levels))
	}
	// The stripe grew across several thresholds while contended; canonical
	// lookups must still hit.
	st := &f.stripes[wantStripe]
	if st.count != len(levels) {
		t.Fatalf("stripe count %d, want %d", st.count, len(levels))
	}
	if slots := len(*st.table.Load()); slots <= initialStripeSlots {
		t.Fatalf("stripe never grew: %d slots", slots)
	}
}

// TestConcurrentVarInterning hammers Var with a small name set from many
// goroutines: interning must return one level per name and the level order
// must be a permutation of 0..n-1 with no gaps or duplicates.
func TestConcurrentVarInterning(t *testing.T) {
	f := NewFactory()
	names := []string{"V0", "V1", "V2", "V3", "V4", "V5"}
	const workers = 8
	got := make([][]Node, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(100 + w)))
			got[w] = make([]Node, len(names))
			for rep := 0; rep < 200; rep++ {
				i := r.Intn(len(names))
				n := f.Var(names[i])
				if got[w][i] == 0 {
					got[w][i] = n
				} else if got[w][i] != n {
					t.Errorf("worker %d: var %s changed node", w, names[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if f.NumVars() != len(names) {
		t.Fatalf("NumVars = %d, want %d", f.NumVars(), len(names))
	}
	seen := map[string]bool{}
	for _, n := range names {
		if !f.HasVar(n) {
			t.Fatalf("variable %s lost", n)
		}
		seen[n] = true
	}
	if len(seen) != len(names) {
		t.Fatalf("duplicate levels: %v", seen)
	}
}
