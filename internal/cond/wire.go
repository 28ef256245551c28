package cond

import "fmt"

// This file is the one codec for formula tables, the form in which durable
// payloads (link facts in the fact store, header-cache entries in the
// artifact store) carry their conditions. A payload flattens every formula
// it holds into one indexed node table so pointer sharing survives the
// round trip: encoding the raw pointer graph would expand shared
// subformulas into trees, and a condition guarding many entries would
// encode once per entry instead of once.
//
// Decoding is defensive, because the payload may come from a corrupt or
// hostile store: opcodes are range checked, each node's argument count must
// fit its opcode, and arguments may only reference earlier entries, which
// forces the DAG acyclic. Malformed tables produce errors, never panics.

// FormulaNode is one node of a formula table; Args index strictly earlier
// entries.
type FormulaNode = struct {
	Op   uint8
	Name string
	Args []int32
}

// WireNode is a formula-node type a payload stores. Gob writes a type's
// package-qualified name into the encoding, so the preprocessor's gob
// payload declares its own named node type, and its persisted bytes stay
// the same wherever the codec lives; a payload with its own layout, such as
// link's, uses FormulaNode directly.
type WireNode interface{ ~FormulaNode }

// FormulaTable flattens formulas into an indexed node list, memoizing on
// pointer identity so shared subformulas encode once. The zero value is
// ready to use.
type FormulaTable[N WireNode] struct {
	Nodes []N
	memo  map[*Formula]int32
}

// Add appends f and its subformulas to the table and returns f's index, or
// -1 for a nil formula.
func (t *FormulaTable[N]) Add(f *Formula) int32 {
	if f == nil {
		return -1
	}
	if i, ok := t.memo[f]; ok {
		return i
	}
	args := make([]int32, len(f.Args))
	for i, a := range f.Args {
		args[i] = t.Add(a)
	}
	if t.memo == nil {
		t.memo = make(map[*Formula]int32)
	}
	idx := int32(len(t.Nodes))
	t.Nodes = append(t.Nodes, N(FormulaNode{Op: uint8(f.Op), Name: f.Name, Args: args}))
	t.memo[f] = idx
	return idx
}

// RebuildFormulas converts a node table back into formulas, restoring
// sharing and rejecting malformed tables.
func RebuildFormulas[N WireNode](nodes []N) ([]*Formula, error) {
	out := make([]*Formula, len(nodes))
	for i, wn := range nodes {
		n := FormulaNode(wn)
		op := FOp(n.Op)
		switch {
		case op > FOr:
			return nil, fmt.Errorf("cond: unknown formula op %d at node %d", n.Op, i)
		case op == FNot && len(n.Args) != 1:
			return nil, fmt.Errorf("cond: negation with %d arguments at node %d", len(n.Args), i)
		case op < FNot && len(n.Args) != 0:
			return nil, fmt.Errorf("cond: leaf formula with %d arguments at node %d", len(n.Args), i)
		}
		f := &Formula{Op: op, Name: n.Name}
		if len(n.Args) > 0 {
			f.Args = make([]*Formula, len(n.Args))
			for j, a := range n.Args {
				if a < 0 || int(a) >= i {
					return nil, fmt.Errorf("cond: formula arg %d out of range at node %d", a, i)
				}
				f.Args[j] = out[a]
			}
		}
		out[i] = f
	}
	return out, nil
}

// FormulaAt returns the formula at index i of a rebuilt table: nil for -1,
// an error for any other index outside it.
func FormulaAt(table []*Formula, i int32) (*Formula, error) {
	if i == -1 {
		return nil, nil
	}
	if i < 0 || int(i) >= len(table) {
		return nil, fmt.Errorf("cond: formula index %d out of range", i)
	}
	return table[i], nil
}
