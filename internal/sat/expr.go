// Package sat provides boolean expression trees, CNF conversion, and a DPLL
// satisfiability solver.
//
// SuperC proper represents presence conditions as BDDs (package bdd). The
// paper's evaluation (§6.3) compares against TypeChef, which instead keeps
// conditions symbolic and converts them to conjunctive normal form for a SAT
// solver — and attributes TypeChef's scalability knee to exactly that CNF
// conversion. This package reproduces that mechanism: an expression tree for
// presence conditions, both naive (distributive) and Tseitin CNF conversion,
// and a DPLL solver with unit propagation and pure-literal elimination.
package sat

import (
	"fmt"
	"math/big"
	"strings"
)

// Op enumerates boolean expression operators.
type Op uint8

// Expression operators. OpVar and OpConst are leaves.
const (
	OpConst Op = iota // boolean constant; Value holds it
	OpVar             // named variable; Name holds it
	OpNot             // negation of Args[0]
	OpAnd             // conjunction of Args
	OpOr              // disjunction of Args
)

// Expr is an immutable boolean expression tree node. Use the constructor
// functions; do not mutate an Expr after creation, because subtrees are
// shared.
type Expr struct {
	Op    Op
	Value bool    // for OpConst
	Name  string  // for OpVar
	Args  []*Expr // operands for OpNot (1), OpAnd, OpOr (2+)
}

// Shared constants.
var (
	TrueExpr  = &Expr{Op: OpConst, Value: true}
	FalseExpr = &Expr{Op: OpConst, Value: false}
)

// Const returns the constant expression for v.
func Const(v bool) *Expr {
	if v {
		return TrueExpr
	}
	return FalseExpr
}

// Var returns a variable reference expression.
func Var(name string) *Expr { return &Expr{Op: OpVar, Name: name} }

// Not returns the negation of e, folding constants and double negation.
func Not(e *Expr) *Expr {
	switch e.Op {
	case OpConst:
		return Const(!e.Value)
	case OpNot:
		return e.Args[0]
	}
	return &Expr{Op: OpNot, Args: []*Expr{e}}
}

// And returns the conjunction of the operands with shallow constant folding.
func And(es ...*Expr) *Expr { return nary(OpAnd, es) }

// Or returns the disjunction of the operands with shallow constant folding.
func Or(es ...*Expr) *Expr { return nary(OpOr, es) }

func nary(op Op, es []*Expr) *Expr {
	// Identity and absorbing elements.
	absorb, identity := FalseExpr, TrueExpr
	if op == OpOr {
		absorb, identity = TrueExpr, FalseExpr
	}
	var kept []*Expr
	for _, e := range es {
		if e.Op == OpConst {
			if e.Value == absorb.Value {
				return absorb
			}
			continue // identity element: drop
		}
		if e.Op == op {
			kept = append(kept, e.Args...) // flatten nested same-op nodes
			continue
		}
		kept = append(kept, e)
	}
	switch len(kept) {
	case 0:
		return identity
	case 1:
		return kept[0]
	}
	return &Expr{Op: op, Args: kept}
}

// Implies returns ¬a ∨ b.
func Implies(a, b *Expr) *Expr { return Or(Not(a), b) }

// Eval evaluates e under the assignment; absent variables default to false.
func (e *Expr) Eval(assign map[string]bool) bool {
	switch e.Op {
	case OpConst:
		return e.Value
	case OpVar:
		return assign[e.Name]
	case OpNot:
		return !e.Args[0].Eval(assign)
	case OpAnd:
		for _, a := range e.Args {
			if !a.Eval(assign) {
				return false
			}
		}
		return true
	case OpOr:
		for _, a := range e.Args {
			if a.Eval(assign) {
				return true
			}
		}
		return false
	}
	panic(fmt.Sprintf("sat: bad op %d", e.Op))
}

// Vars returns the set of variable names occurring in e.
func (e *Expr) Vars() map[string]bool {
	vars := make(map[string]bool)
	e.collectVars(vars)
	return vars
}

func (e *Expr) collectVars(into map[string]bool) {
	if e.Op == OpVar {
		into[e.Name] = true
	}
	for _, a := range e.Args {
		a.collectVars(into)
	}
}

// Size returns the number of nodes in the expression tree (counting shared
// subtrees each time they appear, which mirrors the conversion cost).
func (e *Expr) Size() int {
	n := 1
	for _, a := range e.Args {
		n += a.Size()
	}
	return n
}

// MaxStringNodes bounds String's output: a subexpression shared in the
// DAG prints at each use, so the printed tree can be exponentially larger
// than the expression. Past this many printed nodes String elides.
const MaxStringNodes = 1024

// String renders e with C-preprocessor-style operators. Once MaxStringNodes
// nodes are printed, the remaining operands of each open conjunction or
// disjunction print as "…" and the rendering ends with the count of nodes
// left out, "(+N nodes)"; output size and work stay linear in the DAG.
func (e *Expr) String() string {
	var w exprWriter
	w.write(e)
	if w.elided {
		rest := new(big.Int).Sub(e.treeSize(map[*Expr]*big.Int{}), big.NewInt(int64(w.printed)))
		fmt.Fprintf(&w, " (+%s nodes)", rest)
	}
	return w.String()
}

// exprWriter is one String rendering in progress.
type exprWriter struct {
	strings.Builder
	printed int  // nodes written so far
	elided  bool // some operands were written as "…"
}

func (w *exprWriter) write(e *Expr) {
	w.printed++
	switch e.Op {
	case OpConst:
		if e.Value {
			w.WriteString("1")
		} else {
			w.WriteString("0")
		}
	case OpVar:
		w.WriteString(e.Name)
	case OpNot:
		w.WriteString("!")
		w.operand(e.Args[0], OpNot)
	case OpAnd, OpOr:
		sep := " && "
		if e.Op == OpOr {
			sep = " || "
		}
		for i, a := range e.Args {
			if i > 0 {
				w.WriteString(sep)
				if w.printed >= MaxStringNodes {
					w.WriteString("…")
					w.elided = true
					return
				}
			}
			w.operand(a, e.Op)
		}
	default:
		panic("sat: bad op")
	}
}

// operand writes e as an operand of parent, parenthesized where the
// operators' precedence needs it.
func (w *exprWriter) operand(e *Expr, parent Op) {
	needs := false
	switch e.Op {
	case OpAnd:
		needs = parent == OpNot || parent == OpOr
	case OpOr:
		needs = parent != OpOr
	}
	if needs {
		w.WriteString("(")
	}
	w.write(e)
	if needs {
		w.WriteString(")")
	}
}

// treeSize returns the number of nodes in e printed as a tree, memoized per
// DAG node: linear in the DAG however large the tree.
func (e *Expr) treeSize(memo map[*Expr]*big.Int) *big.Int {
	if n, ok := memo[e]; ok {
		return n
	}
	n := big.NewInt(1)
	for _, a := range e.Args {
		n.Add(n, a.treeSize(memo))
	}
	memo[e] = n
	return n
}
