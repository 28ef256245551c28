// Package fmlr implements SuperC's Fork-Merge LR parser (paper §4).
//
// An FMLR parser runs a set of LR subparsers over the preprocessor's token
// forest. Each subparser recognizes one presence condition's view of the
// input; subparsers fork when static conditionals introduce variability and
// merge as soon as their stacks coincide again, producing one AST with
// static choice nodes. A priority queue ordered by input position
// guarantees no subparser outruns the others, maximizing merge
// opportunities.
//
// Four optimizations (paper §4.2–4.4) bound the subparser population: the
// token follow-set captures actual variability instead of conditional
// syntax; early reduces order reductions before shifts at the same head;
// lazy shifts delay forking of shift-bound heads; and shared reduces apply
// one reduction to a single stack on behalf of many heads. The naive
// strategy of forking per conditional branch (MAPR) is retained as a
// baseline.
package fmlr

import (
	"repro/internal/ast"
	"repro/internal/cond"
	"repro/internal/lalr"
	"repro/internal/preprocessor"
	"repro/internal/token"
)

// element is a node of the navigable token forest: exactly one of tok and
// cnd is set. Elements link forward within their branch and upward to the
// enclosing branch, supporting Algorithm 3's "next token or conditional
// after a, stepping out of conditionals".
type element struct {
	tok  *token.Token
	cnd  *condElem
	next *element  // next element within the same branch (nil at branch end)
	up   *element  // the conditional element containing this one (nil at top level)
	ord  int       // document order; queue priority
	leaf *ast.Node // cached AST leaf: subparsers shifting the same token
	// share one node, so stacks that parsed the same region stay
	// pointer-comparable for merging

	// Cached context-free terminal classification (engine.reclassify):
	// every subparser visiting this token needs it, and it never changes.
	cls    lalr.Symbol
	clsSet bool
}

// leafNode returns the element's shared AST leaf, built from the parse's
// slab allocator on first use.
func (e *element) leafNode(b *ast.Builder) *ast.Node {
	if e.leaf == nil {
		e.leaf = b.Leaf(*e.tok)
	}
	return e.leaf
}

// condElem is a conditional in the forest.
type condElem struct {
	branches []branchElem
}

// branchElem is one branch of a conditional.
type branchElem struct {
	cond  cond.Cond
	first *element // nil for an empty branch
}

// elemSlabSize is how many elements one forest slab allocation covers.
// Elements are small, numerous, and all die with the parse.
const elemSlabSize = 256

// forestBuilder slab-allocates forest elements with a monotonically
// increasing document order. buildForest uses one for the whole unit; the
// streaming parse (stream.go) keeps one alive across chunks so lazily
// materialized elements continue the same ord sequence.
type forestBuilder struct {
	slab   []element
	ord    int
	tokens int // ordinary tokens materialized so far (EOF excluded)
}

func (fb *forestBuilder) newElem(up *element) *element {
	if len(fb.slab) == 0 {
		fb.slab = make([]element, elemSlabSize)
	}
	el := &fb.slab[0]
	fb.slab = fb.slab[1:]
	el.up = up
	el.ord = fb.ord
	fb.ord++
	return el
}

// convert builds the linked forest of one segment slice, returning its
// first element (nil when the slice holds no feasible content).
func (fb *forestBuilder) convert(segs []preprocessor.Segment, up *element) *element {
	var head, tail *element
	link := func(e *element) {
		if tail == nil {
			head = e
		} else {
			tail.next = e
		}
		tail = e
	}
	for _, sg := range segs {
		e := fb.newElem(up)
		if sg.IsToken() {
			e.tok = sg.Tok
			fb.tokens++
			link(e)
			continue
		}
		ce := &condElem{}
		e.cnd = ce
		link(e)
		for _, br := range sg.Cond.Branches {
			ce.branches = append(ce.branches, branchElem{
				cond:  br.Cond,
				first: fb.convert(br.Segs, e),
			})
		}
	}
	return head
}

// convertRun builds a top-level element chain over a dense token run,
// pointing each element at the run's storage (no token copies).
func (fb *forestBuilder) convertRun(run []token.Token) (head, tail *element) {
	for i := range run {
		e := fb.newElem(nil)
		e.tok = &run[i]
		fb.tokens++
		if tail == nil {
			head = e
		} else {
			tail.next = e
		}
		tail = e
	}
	return head, tail
}

// newEOF builds the synthetic end-of-input element.
func (fb *forestBuilder) newEOF(file string) *element {
	eof := fb.newElem(nil)
	eof.tok = &token.Token{Kind: token.EOF, File: file}
	return eof
}

// buildForest converts preprocessor segments into the linked forest,
// appending a synthetic EOF token. It returns the first element and the
// total token count.
func buildForest(segs []preprocessor.Segment, file string) (first *element, tokens int) {
	var fb forestBuilder
	first = fb.convert(segs, nil)
	eof := fb.newEOF(file)
	if first == nil {
		return eof, fb.tokens
	}
	// Append EOF at top level.
	last := first
	for last.next != nil {
		last = last.next
	}
	last.next = eof
	return first, fb.tokens
}

// after returns the next token or conditional after el, stepping out of
// enclosing conditionals when el ends its branch (Algorithm 3 line 28 /
// line 21's "next token or conditional"). In streaming mode the forest is
// materialized lazily, so reaching the top level's current tail pulls the
// next chunk from the stream (stream.go) instead of reporting end of input.
func (e *Engine) after(el *element) *element {
	for el != nil {
		if el.next != nil {
			return el.next
		}
		if el.up == nil {
			if st := e.stream; st != nil && el == st.tail {
				return st.materializeNext()
			}
			return nil
		}
		el = el.up
	}
	return nil
}
