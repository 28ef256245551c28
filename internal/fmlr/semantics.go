package fmlr

import (
	"repro/internal/ast"
	"repro/internal/cgrammar"
	"repro/internal/cond"
)

// reduce pops one production's right-hand side, builds the semantic value
// per the grammar's AST annotations (paper §5.1), applies context effects
// (scopes and typedef registration, §5.2), and pushes the goto state.
func (e *Engine) reduce(p *subparser, prodIdx int) {
	e.stats.Reduces++
	prod := e.lang.Grammar.Productions()[prodIdx]
	var info cgrammar.ProdInfo
	if prodIdx < len(e.lang.Info) {
		info = e.lang.Info[prodIdx]
	}
	n := len(prod.Rhs)
	// Scratch buffer: ast.New / ast.List copy the children they keep, so
	// vals never escapes the reduction.
	if cap(e.sc.valsBuf) < n {
		e.sc.valsBuf = make([]*ast.Node, n+8)
	}
	vals := e.sc.valsBuf[:n]
	st := p.stack
	for i := n - 1; i >= 0; i-- {
		vals[i] = st.val
		st = st.next
	}
	next := e.lang.Table.Gotos[st.state][prod.Lhs]
	if next < 0 {
		// Table invariant violation; treat as parse failure for this
		// subparser by leaving the stack unusable. Should not happen.
		return
	}
	var val *ast.Node
	switch info.Ann {
	case cgrammar.AnnPassthrough:
		var sole *ast.Node
		count := 0
		for _, v := range vals {
			if v != nil {
				sole = v
				count++
			}
		}
		if count == 1 {
			val = sole
		} else {
			val = e.sc.ab.New(prod.Label, vals...)
		}
	case cgrammar.AnnList:
		val = e.sc.ab.List(prod.Label, vals...)
	default:
		val = e.sc.ab.New(prod.Label, vals...)
	}

	switch {
	case info.PushScope:
		p.depth++
	case info.PopScope:
		e.tab.Exit(p.depth, p.c)
		p.depth--
	case info.RegistersTypedef:
		e.registerInitDeclarator(p, val, st)
	}

	p.stack = e.pushNode(next, prod.Lhs, val, st)
}

// registerInitDeclarator updates the symbol table when an init-declarator
// reduces: names declared with the typedef storage class become typedef
// names, other declared names become objects (shadowing any typedef
// meaning). Registration happens at the InitDeclarator reduction — before
// the token after the declarator is classified — mirroring the timing of
// the classic lexer hack. The declaration's specifiers sit below the
// popped right-hand side on the stack: either directly (first declarator)
// or under "InitDeclaratorList ," (subsequent ones). All registrations are
// configuration-aware: a name inside a static choice node registers only
// under the alternatives' conditions.
func (e *Engine) registerInitDeclarator(p *subparser, declarator *ast.Node, below *stackNode) {
	if declarator == nil {
		return
	}
	base := p.c
	// Locate the enclosing DeclarationSpecifiers value.
	specSym, ok := e.specSym, e.specOK
	if !ok {
		return
	}
	var specs *ast.Node
	st := below
	for hops := 0; st != nil && hops < 4; hops, st = hops+1, st.next {
		if st.sym == specSym {
			specs = st.val
			break
		}
	}
	if specs == nil {
		return
	}
	tdCond := e.condsOfLeaf(specs, "typedef", base)
	names := e.declaratorNames(declarator, base)
	if len(names) == 0 {
		return
	}
	for _, nc := range names {
		asTypedef := e.space.And(nc.cond, tdCond)
		asObject := e.space.AndNot(nc.cond, tdCond)
		if !e.space.IsFalse(asTypedef) {
			e.tab.Define(nc.name, p.depth, asTypedef, true)
		}
		if !e.space.IsFalse(asObject) {
			e.tab.Define(nc.name, p.depth, asObject, false)
		}
	}
}

// condsOfLeaf returns the disjunction of conditions under which a leaf with
// the given text occurs beneath n.
func (e *Engine) condsOfLeaf(n *ast.Node, text string, base cond.Cond) cond.Cond {
	s := e.space
	result := s.False()
	var walk func(m *ast.Node, c cond.Cond)
	walk = func(m *ast.Node, c cond.Cond) {
		if m == nil || s.IsFalse(c) {
			return
		}
		switch m.Kind {
		case ast.KindToken:
			if m.Tok.Text == text {
				result = s.Or(result, c)
			}
		case ast.KindChoice:
			for _, a := range m.Alts {
				walk(a.Node, s.And(c, a.Cond))
			}
		default:
			for _, ch := range m.Children {
				walk(ch, c)
			}
		}
	}
	walk(n, base)
	return result
}

type nameCond struct {
	name string
	cond cond.Cond
}

// declaratorNames collects the identifiers declared by an
// init-declarator-list value, tracking choice-node conditions. Declarator
// structure bottoms out at IdentifierDeclarator nodes whose sole child is
// the name leaf.
func (e *Engine) declaratorNames(n *ast.Node, base cond.Cond) []nameCond {
	s := e.space
	var out []nameCond
	var walk func(m *ast.Node, c cond.Cond)
	walk = func(m *ast.Node, c cond.Cond) {
		if m == nil || s.IsFalse(c) {
			return
		}
		switch m.Kind {
		case ast.KindChoice:
			for _, a := range m.Alts {
				walk(a.Node, s.And(c, a.Cond))
			}
			return
		case ast.KindToken:
			return
		}
		if m.Label == "IdentifierDeclarator" && len(m.Children) == 1 && m.Children[0].Kind == ast.KindToken {
			out = append(out, nameCond{name: m.Children[0].Tok.Text, cond: c})
			return
		}
		// Do not descend into initializers: "int x = y" declares only x.
		// Initializer values appear under InitializedDeclarator's second
		// child; the declarator itself is the first.
		if m.Label == "InitializedDeclarator" && len(m.Children) > 0 {
			walk(m.Children[0], c)
			return
		}
		// Descend only through the declarator spine: function parameters
		// and array sizes do not declare names in the enclosing scope.
		if (m.Label == "FunctionDeclarator" || m.Label == "ArrayDeclarator") && len(m.Children) > 0 {
			walk(m.Children[0], c)
			return
		}
		for _, ch := range m.Children {
			walk(ch, c)
		}
	}
	walk(n, base)
	return out
}
