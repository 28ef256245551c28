package analysis

// This file is the one scoped name-resolution traversal of a unit's choice
// AST. It owns C's conditional scoping rules, so every consumer — the
// undefuse, condredef and deadbranch passes, the framework's error-region
// count, the file-scope definition analyses and link-fact extraction —
// reads one result instead of re-walking the tree with its own copy of the
// rules:
//
//   - scopes: the file scope; a parameter scope per function definition,
//     wrapping its body; a block scope per compound statement;
//   - declarators bind object or typedef names (a typedef specifier decides)
//     in the current scope, and a declarator is in scope inside its own
//     initializer, which is scanned for uses after the declarator binds;
//   - a function definition binds its name in the enclosing scope and its
//     parameters in the parameter scope; declaration specifiers, at file
//     and block scope, bind their enumerators;
//   - each file-scope declarator is recorded once as a Decl: its declared
//     name, the declaration's specifiers and the declarator root it sits
//     in, and the shape bits link facts and definitions depend on (typedef,
//     initialized, declares a function, function definition); every
//     enumerator, in any scope or role, is recorded as an Enumerator;
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
	// Decls holds one entry per file-scope declarator, in first-sighting
	// order.
	Decls []Decl
	// Enumerators holds one entry per enumeration constant, in any scope, in
	// first-sighting order.
	Enumerators []Enumerator
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

// Decl is one file-scope declarator: a declared name under one
// declaration's specifiers and declarator root, its condition OR-ed over
// every path that reaches it. FMLR may parse one source declaration
// several times (paper §2.1), so sightings aggregate by the token's own
// file:line:col together with the specifier and root nodes and the shape
// bits.
type Decl struct {
	Tok         *token.Token
	Cond        cond.Cond
	Typedef     bool      // the specifiers hold typedef
	Initialized bool      // the declarator has an initializer
	Function    bool      // the name declares a function, not a function pointer
	Body        bool      // the declarator heads a function definition
	Specs       *ast.Node // the declaration's specifiers; nil when absent
	Root        *ast.Node // the declarator root holding the name
}

// Enumerator is one enumeration constant, its condition OR-ed over every
// path that reaches it.
type Enumerator struct {
	Tok  *token.Token
	Cond cond.Cond
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
		uses:  make(map[posKey]int),
		decls: make(map[declKey]int),
		enums: make(map[posKey]int),
		reach: make(map[*ast.Node]int),
	}
	r.visit(root, at{c: s.True(), role: external, top: true})
	return r.res
}

// role says what a subtree means to name resolution.
type role uint8

const (
	opaque      role = iota // no ordinary names: visited for reach, error regions and enumerators only
	external                // file-scope external declarations
	body                    // statements and expressions: identifiers are uses
	specifiers              // declaration specifiers: enumerators bind
	declarators             // a declarator list or a function definition's declarator: declared names bind
)

// at is the traversal context of one node.
type at struct {
	c    cond.Cond // path condition
	role role
	top  bool // outside any function body

	// Declarators only.
	typedef bool      // names bind as typedef names
	extern  bool      // the declaration is extern
	fn      bool      // a function definition's declarator: its parameters bind for the body
	param   bool      // a parameter's declarator: the name binds in the parameter scope
	init    bool      // the declarator has an initializer
	call    bool      // the innermost wrapper crossed is a function declarator
	specs   *ast.Node // the declaration's specifiers
	root    *ast.Node // the declarator root; nil above it
}

func (x at) as(r role) at {
	x.role = r
	return x
}

// posKey is a token's own source position.
type posKey struct {
	name, file string
	line, col  int
}

type declKey struct {
	pos         posKey
	specs, root *ast.Node
	shape       [4]bool // typedef, init, call, fn
}

// binding is a parameter name waiting for its function's parameter scope.
type binding struct {
	name string
	c    cond.Cond
}

type resolver struct {
	space  *cond.Space
	names  *symtab.Table // every declaration in scope, for resolving uses
	defs   *symtab.Table // block-scope definitions, for the same-scope check
	depth  int           // the current scope's depth in names and defs
	res    *Resolution
	uses   map[posKey]int    // index into res.Uses
	decls  map[declKey]int   // index into res.Decls
	enums  map[posKey]int    // index into res.Enumerators
	reach  map[*ast.Node]int // index into res.Reach
	params []binding         // parameters of the function definitions being entered
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
	if n.Label == "Enumerator" && len(n.Children) > 0 && n.Children[0].Kind == ast.KindToken {
		r.enumerator(n.Children[0].Tok, x)
	}
	switch x.role {
	case external, body:
		r.statement(n, x)
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

// declaration binds a declaration's names in the current scope: its
// specifiers' enumerators first, then each declarator.
func (r *resolver) declaration(n *ast.Node, x at) {
	if len(n.Children) < 2 {
		r.children(n.Children, x.as(opaque))
		return
	}
	specs := n.Children[0]
	decl := at{c: x.c, role: declarators, top: x.top, specs: specs, typedef: containsLeaf(specs, "typedef")}
	if r.block() {
		decl.extern = containsLeaf(specs, "extern")
	}
	r.visit(specs, x.as(specifiers))
	r.visit(n.Children[1], decl)
	r.children(n.Children[2:], x.as(opaque))
}

// declarator binds the names of a declarator list or of a function
// definition's declarator. The first node below the list roots one
// declarator; on the way down to its name, the innermost function, array
// or pointer wrapper decides whether the name declares a function.
func (r *resolver) declarator(n *ast.Node, x at) {
	if n.Label == "InitDeclaratorList" {
		r.children(n.Children, x)
		return
	}
	if x.root == nil {
		x.root = n
	}
	switch n.Label {
	case "IdentifierDeclarator":
		if len(n.Children) == 1 && n.Children[0].Kind == ast.KindToken {
			r.bind(n.Children[0].Tok, x)
		}
		r.children(n.Children, x.as(opaque))
	case "InitializedDeclarator":
		// The declarator binds before its initializer is scanned.
		if len(n.Children) > 0 {
			x.init = true
			r.visit(n.Children[0], x)
			r.children(n.Children[1:], x.as(body))
		}
	case "FunctionDeclarator":
		x.call = true
		r.children(n.Children, x)
	case "ArrayDeclarator":
		x.call = false
		r.only(n.Children, 0, x)
	case "PointerDeclarator":
		x.call = false
		r.children(n.Children, x)
	case "ParameterDeclaration":
		// A parameter of the function being defined binds its declarator's
		// name for the body; any other parameter list is opaque.
		if x.fn {
			r.only(n.Children, 1, at{c: x.c, role: declarators, top: x.top, param: true})
		} else {
			r.children(n.Children, x.as(opaque))
		}
	case "StructSpecifier", "EnumSpecifier":
		r.children(n.Children, x.as(opaque))
	default:
		r.children(n.Children, x)
	}
}

// function binds a function definition's name in the enclosing scope, then
// its parameters in a fresh scope wrapping the body.
func (r *resolver) function(n *ast.Node, x at) {
	specs, decl := splitFuncDef(n)
	mark := len(r.params)
	for _, ch := range n.Children {
		switch {
		case ch == decl:
			r.visit(ch, at{c: x.c, role: declarators, top: x.top, fn: true, specs: specs, root: decl})
		case ch != nil && ch.Label == "CompoundStatement":
			r.enter()
			for _, p := range r.params[mark:] {
				r.names.Define(p.name, r.depth, p.c, false)
			}
			r.params = r.params[:mark]
			b := x.as(body)
			b.top = false
			r.visit(ch, b)
			r.exit()
		default:
			r.visit(ch, x.as(opaque))
		}
	}
	r.params = r.params[:mark]
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

func (r *resolver) enter() { r.depth++ }

// exit leaves the current scope on every path at once: the traversal
// visits paths one after another, so nothing stays inside the block.
func (r *resolver) exit() {
	r.names.Exit(r.depth, r.space.True())
	r.defs.Exit(r.depth, r.space.True())
	r.depth--
}

// block reports whether the current scope is a parameter or block scope.
func (r *resolver) block() bool { return r.depth > symtab.FileScope }

// bind declares a name in the current scope; a parameter's name waits for
// its function's parameter scope. A file-scope declarator is recorded as a
// Decl. A block-scope definition is first checked against its scope's
// earlier definitions; an extern declaration refers to a definition
// elsewhere, so it is not one, and a nested function definition's name is
// not checked.
func (r *resolver) bind(tok *token.Token, x at) {
	switch {
	case x.param:
		r.params = append(r.params, binding{tok.Text, x.c})
		return
	case !r.block():
		r.declare(tok, x)
	case !x.extern && !x.fn:
		r.redefine(tok, x)
	}
	r.names.Define(tok.Text, r.depth, x.c, x.typedef)
}

// declare records a file-scope declarator sighting.
func (r *resolver) declare(tok *token.Token, x at) {
	key := declKey{pos: pos(tok), specs: x.specs, root: x.root, shape: [4]bool{x.typedef, x.init, x.call, x.fn}}
	if i, ok := r.decls[key]; ok {
		r.res.Decls[i].Cond = r.space.Or(r.res.Decls[i].Cond, x.c)
		return
	}
	r.decls[key] = len(r.res.Decls)
	r.res.Decls = append(r.res.Decls, Decl{
		Tok: tok, Cond: x.c, Typedef: x.typedef, Initialized: x.init, Function: x.call, Body: x.fn,
		Specs: x.specs, Root: x.root,
	})
}

// enumerator records an enumeration constant sighting; in declaration
// specifiers it also binds the constant in the current scope.
func (r *resolver) enumerator(tok *token.Token, x at) {
	if x.role == specifiers {
		r.names.Define(tok.Text, r.depth, x.c, false)
	}
	key := pos(tok)
	if i, ok := r.enums[key]; ok {
		r.res.Enumerators[i].Cond = r.space.Or(r.res.Enumerators[i].Cond, x.c)
		return
	}
	r.enums[key] = len(r.res.Enumerators)
	r.res.Enumerators = append(r.res.Enumerators, Enumerator{Tok: tok, Cond: x.c})
}

func pos(tok *token.Token) posKey {
	return posKey{name: tok.Text, file: tok.File, line: tok.Line, col: tok.Col}
}

func (r *resolver) redefine(tok *token.Token, x at) {
	if td, obj, ok := r.defs.CurrentScope(tok.Text, r.depth); ok {
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
	r.defs.Define(tok.Text, r.depth, x.c, x.typedef)
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

// use records an identifier sighting. Keywords lex as identifiers in this
// pipeline (reclassification is a parse-time concern), so they are
// filtered here.
func (r *resolver) use(tok *token.Token, x at) {
	if cgrammar.IsKeyword(tok.Text) {
		return
	}
	key := pos(tok)
	i, ok := r.uses[key]
	if !ok {
		i = len(r.res.Uses)
		r.uses[key] = i
		f := r.space.False()
		r.res.Uses = append(r.res.Uses, Use{Tok: tok, TopLevel: x.top, Declared: f, Missing: f, Escaped: f})
	}
	u := &r.res.Uses[i]
	local, file := r.names.Declared(tok.Text, r.depth)
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
