package analysis

// This file is the one scoped name-resolution traversal of a unit's choice
// AST. It owns C's conditional scoping rules, so every consumer — the
// undefuse, condredef and deadbranch passes, the framework's error-region
// count and link-fact extraction — reads one result instead of re-walking
// the tree with its own copy of the rules:
//
//   - scopes: the file scope; a parameter scope per function definition,
//     wrapping its body; a block scope per compound statement;
//   - declarators bind object or typedef names (a typedef specifier decides)
//     in the current scope, and a declarator is in scope inside its own
//     initializer, which is scanned for uses after the declarator binds;
//   - a function definition binds its name in the enclosing scope and its
//     parameters in the parameter scope; block-scope declaration specifiers
//     bind their enumerators;
//   - a block-scope extern declaration binds the name but refers to a
//     definition elsewhere, so it never counts as a same-scope redefinition;
//   - member names, labels, goto targets, struct/union/enum tags and type
//     names live outside the ordinary identifier namespace and are neither
//     uses nor declarations;
//   - identifier uses are the non-keyword identifiers of function bodies and
//     file-scope initializers;
//   - static choice nodes conjoin each alternative's condition and prune
//     alternatives infeasible on the path, and degradation error nodes
//     (ast.ErrorLabel) are opaque: counted, never entered.
//
// A subtree shared by several choice alternatives is visited once per path,
// under that path's condition. Results aggregate by source position as they
// are produced, so the resolution stays proportional to the unit's sites,
// not to its paths.

import (
	"repro/internal/ast"
	"repro/internal/cgrammar"
	"repro/internal/cond"
	"repro/internal/symtab"
	"repro/internal/token"
)

// Resolution is what one scoped traversal of a unit's choice AST finds.
type Resolution struct {
	// Uses holds one entry per textual identifier use in a function body or
	// a file-scope initializer, in first-sighting order.
	Uses []Use
	// Redefs are block-scope definitions overlapping an earlier definition
	// of the same name in the same scope, in traversal order.
	Redefs []Redef
	// Reach holds every choice node on a feasible path with the disjunction
	// of the path conditions reaching it, in first-visit order.
	Reach []Reach
	// ErrorRegions counts the opaque error regions met, once per path.
	ErrorRegions int
}

// Use is one textual identifier use, its conditions OR-ed over every path
// that reaches it.
type Use struct {
	Tok *token.Token
	// TopLevel marks a use in a file-scope initializer rather than in a
	// function body. Declared and Missing are resolved for function-body
	// uses only, and stay False for top-level ones: file-scope
	// initializers can sit under many paths, and only link extraction
	// reads them.
	TopLevel bool
	// Declared holds the conditions of the declarations in scope at the use,
	// in any scope.
	Declared cond.Cond
	// Missing holds the paths that reach the use with no declaration in
	// scope.
	Missing cond.Cond
	// Escaped holds the paths that reach the use with no parameter or
	// block-scope declaration in scope: there the name resolves at file
	// scope or in another unit.
	Escaped cond.Cond
}

// Redef is a block-scope definition overlapping an earlier definition of
// the same name in the same scope.
type Redef struct {
	Tok       *token.Token
	Cond      cond.Cond // where both definitions exist
	Typedef   bool      // the new definition declares a typedef name
	CrossKind bool      // the earlier definition is of the other kind
}

// Reach is one choice node and the paths that reach it.
type Reach struct {
	Node *ast.Node
	Cond cond.Cond
}

// Resolution returns the unit's scoped name resolution, traversing the AST
// on the first call only: analysis passes and link extraction over one Unit
// share it. A Unit is resolved by one goroutine at a time.
func (u *Unit) Resolution() *Resolution {
	if u.res == nil {
		u.res = resolve(u.Space, u.AST)
	}
	return u.res
}

func resolve(s *cond.Space, root *ast.Node) *Resolution {
	r := &resolver{
		space: s,
		names: symtab.New(s),
		defs:  symtab.New(s),
		res:   &Resolution{},
		uses:  make(map[useKey]int),
		reach: make(map[*ast.Node]int),
	}
	r.visit(root, at{c: s.True(), role: external, top: true})
	return r.res
}

// role says what a subtree means to name resolution.
type role uint8

const (
	opaque      role = iota // no ordinary names: visited for reach and error regions only
	external                // file-scope external declarations
	body                    // statements and expressions: identifiers are uses
	params                  // a function definition's declarator: parameter names bind
	specifiers              // block-scope declaration specifiers: enumerators bind
	declarators             // a declaration's declarator list: declared names bind
)

// at is the traversal context of one node.
type at struct {
	c       cond.Cond // path condition
	role    role
	top     bool // outside any function body
	typedef bool // declarators: names bind as typedef names
	extern  bool // declarators: the declaration is extern
}

func (x at) as(r role) at {
	x.role = r
	return x
}

type useKey struct {
	name      string
	line, col int
}

type resolver struct {
	space *cond.Space
	names *symtab.Table // every declaration in scope, for resolving uses
	defs  *symtab.Table // block-scope definitions, for the same-scope check
	res   *Resolution
	uses  map[useKey]int    // index into res.Uses
	reach map[*ast.Node]int // index into res.Reach
}

func (r *resolver) visit(n *ast.Node, x at) {
	switch {
	case n == nil:
		return
	case n.IsError():
		r.res.ErrorRegions++
		return
	case n.Kind == ast.KindChoice:
		r.reached(n, x.c)
		for _, alt := range n.Alts {
			y := x
			y.c = r.space.And(x.c, alt.Cond)
			if !r.space.IsFalse(y.c) {
				r.visit(alt.Node, y)
			}
		}
		return
	case n.Kind == ast.KindToken:
		if x.role == body && n.Tok.Kind == token.Identifier {
			r.use(n.Tok, x)
		}
		return
	}
	switch x.role {
	case external, body:
		r.statement(n, x)
	case params:
		r.param(n, x)
	case specifiers:
		if n.Label == "Enumerator" && len(n.Children) > 0 && n.Children[0].Kind == ast.KindToken {
			r.names.DefineObject(n.Children[0].Text(), x.c)
		}
		r.children(n.Children, x)
	case declarators:
		r.declarator(n, x)
	default:
		r.children(n.Children, x)
	}
}

func (r *resolver) children(children []*ast.Node, x at) {
	for _, ch := range children {
		r.visit(ch, x)
	}
}

// only visits children[keep] in x and every other child as opaque.
func (r *resolver) only(children []*ast.Node, keep int, x at) {
	for i, ch := range children {
		if i == keep {
			r.visit(ch, x)
		} else {
			r.visit(ch, x.as(opaque))
		}
	}
}

// statement applies the rules shared by file scope and function bodies.
func (r *resolver) statement(n *ast.Node, x at) {
	switch n.Label {
	case "CompoundStatement":
		r.enter()
		r.children(n.Children, x.as(body))
		r.exit()
	case "Declaration":
		r.declaration(n, x)
	case "FunctionDefinition":
		r.function(n, x)
	case "MemberExpr", "ArrowExpr":
		// The member name lives in its struct's namespace; only the object
		// expression holds uses.
		r.only(n.Children, 0, x)
	case "LabelStatement":
		// "name: stmt" — the label is not an ordinary identifier.
		r.only(n.Children, len(n.Children)-1, x)
	case "GotoStatement", "TypeName", "StructSpecifier", "EnumSpecifier", "FieldDesignator":
		r.children(n.Children, x.as(opaque))
	default:
		r.children(n.Children, x)
	}
}

// declaration binds a declaration's names in the current scope: in block
// scope its specifiers' enumerators first, then each declarator.
func (r *resolver) declaration(n *ast.Node, x at) {
	if len(n.Children) < 2 {
		r.children(n.Children, x.as(opaque))
		return
	}
	specs, decl := x.as(opaque), x.as(declarators)
	if r.block() {
		specs.role = specifiers
		decl.extern = containsLeaf(n.Children[0], "extern")
	}
	decl.typedef = containsLeaf(n.Children[0], "typedef")
	r.visit(n.Children[0], specs)
	r.visit(n.Children[1], decl)
	r.children(n.Children[2:], x.as(opaque))
}

func (r *resolver) declarator(n *ast.Node, x at) {
	switch n.Label {
	case "IdentifierDeclarator":
		if len(n.Children) == 1 && n.Children[0].Kind == ast.KindToken {
			r.bind(n.Children[0].Tok, x)
		}
		r.children(n.Children, x.as(opaque))
	case "InitializedDeclarator":
		// The declarator binds before its initializer is scanned.
		if len(n.Children) > 0 {
			r.visit(n.Children[0], x)
			r.children(n.Children[1:], x.as(body))
		}
	case "ParameterDeclaration", "StructSpecifier", "EnumSpecifier":
		r.children(n.Children, x.as(opaque))
	default:
		r.children(n.Children, x)
	}
}

// function binds a function definition's name in the enclosing scope, then
// its parameters in a fresh scope wrapping the body.
func (r *resolver) function(n *ast.Node, x at) {
	if name, _, _ := declaredNamePos(n); name != "" {
		r.names.DefineObject(name, x.c)
	}
	_, decl := splitFuncDef(n)
	r.enter()
	for _, ch := range n.Children {
		switch {
		case ch == decl:
			r.visit(ch, x.as(params))
		case ch != nil && ch.Label == "CompoundStatement":
			b := x.as(body)
			b.top = false
			r.visit(ch, b)
		default:
			r.visit(ch, x.as(opaque))
		}
	}
	r.exit()
}

// param binds each ParameterDeclaration's declared name; the declaration's
// own subtree is opaque.
func (r *resolver) param(n *ast.Node, x at) {
	if n.Label != "ParameterDeclaration" {
		r.children(n.Children, x)
		return
	}
	for _, ch := range n.Children {
		if name, _, _ := declaredNamePos(ch); name != "" {
			r.names.DefineObject(name, x.c)
			break
		}
	}
	r.children(n.Children, x.as(opaque))
}

// splitFuncDef separates a FunctionDefinition's specifier child from its
// declarator child (either may be missing or a choice).
func splitFuncDef(n *ast.Node) (specs, decl *ast.Node) {
	for _, ch := range n.Children {
		if ch == nil || ch.Label == "CompoundStatement" {
			continue
		}
		if ch.Label == "DeclarationSpecifiers" && specs == nil && decl == nil {
			specs = ch
			continue
		}
		if decl == nil {
			decl = ch
		}
	}
	return specs, decl
}

func (r *resolver) enter() {
	r.names.EnterScope()
	r.defs.EnterScope()
}

func (r *resolver) exit() {
	r.names.ExitScope()
	r.defs.ExitScope()
}

// block reports whether the current scope is a parameter or block scope.
func (r *resolver) block() bool { return r.names.Depth() > 1 }

// bind declares a name in the current scope. A block-scope definition is
// first checked against its scope's earlier definitions; an extern
// declaration refers to a definition elsewhere, so it is not one.
func (r *resolver) bind(tok *token.Token, x at) {
	if r.block() && !x.extern {
		r.redefine(tok, x)
	}
	define(r.names, tok.Text, x.c, x.typedef)
}

func (r *resolver) redefine(tok *token.Token, x at) {
	if td, obj, ok := r.defs.CurrentScope(tok.Text); ok {
		same, cross := obj, td
		if x.typedef {
			same, cross = td, obj
		}
		if ov, ok := r.overlap(cross, x.c); ok {
			r.res.Redefs = append(r.res.Redefs, Redef{Tok: tok, Cond: ov, Typedef: x.typedef, CrossKind: true})
		} else if ov, ok := r.overlap(same, x.c); ok {
			r.res.Redefs = append(r.res.Redefs, Redef{Tok: tok, Cond: ov, Typedef: x.typedef})
		}
	}
	define(r.defs, tok.Text, x.c, x.typedef)
}

// overlap conjoins a scope entry's condition (the zero Cond: none) with c;
// ok is false when the overlap is infeasible.
func (r *resolver) overlap(have, c cond.Cond) (cond.Cond, bool) {
	if have == (cond.Cond{}) {
		return have, false
	}
	ov := r.space.And(have, c)
	return ov, !r.space.IsFalse(ov)
}

func define(t *symtab.Table, name string, c cond.Cond, typedef bool) {
	if typedef {
		t.DefineTypedef(name, c)
	} else {
		t.DefineObject(name, c)
	}
}

// use records an identifier sighting. Keywords lex as identifiers in this
// pipeline (reclassification is a parse-time concern), so they are
// filtered here.
func (r *resolver) use(tok *token.Token, x at) {
	if cgrammar.IsKeyword(tok.Text) {
		return
	}
	key := useKey{name: tok.Text, line: tok.Line, col: tok.Col}
	i, ok := r.uses[key]
	if !ok {
		i = len(r.res.Uses)
		r.uses[key] = i
		f := r.space.False()
		r.res.Uses = append(r.res.Uses, Use{Tok: tok, TopLevel: x.top, Declared: f, Missing: f, Escaped: f})
	}
	u := &r.res.Uses[i]
	local, file := r.names.Declared(tok.Text)
	escaped := r.space.AndNot(x.c, local)
	if !x.top {
		u.Missing = r.space.Or(u.Missing, r.space.AndNot(escaped, file))
		u.Declared = r.space.Or(u.Declared, r.space.Or(local, file))
	}
	u.Escaped = r.space.Or(u.Escaped, escaped)
}

func (r *resolver) reached(n *ast.Node, c cond.Cond) {
	if i, ok := r.reach[n]; ok {
		r.res.Reach[i].Cond = r.space.Or(r.res.Reach[i].Cond, c)
		return
	}
	r.reach[n] = len(r.res.Reach)
	r.res.Reach = append(r.res.Reach, Reach{Node: n, Cond: c})
}
