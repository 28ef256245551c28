package analysis

// This file is the per-unit extraction stage feeding the whole-corpus
// variability-aware linker (internal/link). It walks the unit's choice AST
// and emits, per external symbol, presence-conditioned link facts:
// definitions, tentative definitions, extern declarations and prototypes,
// and references that resolve outside the unit's internal names (the
// escaped uses of the unit's Resolution). Conditions leave the unit's space
// as space-independent formulas (one exporter per unit, so the DAG sharing
// survives), and the linker composes them across units through hcache.Canon
// ids.
//
// The unit-internal name set — static objects and functions, typedefs, and
// enumerators — is collected in the same pass that emits the facts, and
// finish subtracts it from every reference: a use of a static never becomes
// a cross-unit fact, even when the use precedes the definition. Type
// signatures are canonical strings built from the declaration's specifier
// words and declarator shape (declared name replaced by "@", parameter
// names elided, storage classes dropped, braced struct/enum bodies
// collapsed to their tag), so two units spelling the same type compare
// equal byte-wise; conditional declaration fragments fork the signature
// into per-condition variants.

import (
	"sort"

	"repro/internal/ast"
	"repro/internal/cond"
	"repro/internal/link"
)

// maxSigVariants caps the per-declaration signature fork: a declaration
// split by many conditionals crosses its fragments multiplicatively, and
// past this point extra variants are dropped deterministically (first
// variants in choice order win) rather than risking a blowup.
const maxSigVariants = 8

// ExtractLinkFacts walks the unit's choice AST and returns its conditional
// link facts in canonical order, with conditions exported from the unit's
// space. Units with no AST yield an empty, non-nil fact set.
func ExtractLinkFacts(u *Unit) *link.Facts {
	x := &extractor{
		unit:     u,
		space:    u.Space,
		internal: make(map[string]cond.Cond),
		facts:    make(map[factKey]*factAcc),
	}
	if u.AST != nil {
		x.top(u.AST, x.space.True())
	}
	return x.finish()
}

type factKey struct {
	name      string
	kind      link.FactKind
	file      string
	line, col int
	sig       string
}

type factAcc struct{ c cond.Cond }

type extractor struct {
	unit     *Unit
	space    *cond.Space
	internal map[string]cond.Cond // statics, typedefs, enumerators
	facts    map[factKey]*factAcc
}

// top iterates external declarations, conjoining hoisted choice conditions.
func (x *extractor) top(n *ast.Node, c cond.Cond) {
	if n == nil || x.space.IsFalse(c) || n.IsError() {
		return
	}
	switch n.Kind {
	case ast.KindToken:
		return
	case ast.KindChoice:
		for _, alt := range n.Alts {
			x.top(alt.Node, x.space.And(c, alt.Cond))
		}
		return
	}
	switch n.Label {
	case "FunctionDefinition":
		x.functionDefinition(n, c)
		return
	case "Declaration":
		x.declaration(n, c)
		return
	}
	for _, ch := range n.Children {
		x.top(ch, c)
	}
}

// declaration handles one file-scope declaration: static and typedef names
// (and every enumerator) join the unit-internal set, the rest emit facts.
func (x *extractor) declaration(n *ast.Node, c cond.Cond) {
	if len(n.Children) < 2 {
		return
	}
	x.collectEnumerators(n, c)
	specVars := x.sigVariants(n.Children[0], false)
	x.eachDeclRoot(n.Children[1], c, func(root *ast.Node, rc cond.Cond) {
		sites := x.declSites(root, rc, false)
		declVars := x.sigVariants(root, false)
		for _, sv := range specVars {
			if sv.isTypedef || sv.isStatic {
				for _, site := range sites {
					x.internalName(site.name, x.space.And(site.c, sv.c))
				}
				continue
			}
			for _, site := range sites {
				base := x.space.And(site.c, sv.c)
				if x.space.IsFalse(base) {
					continue
				}
				kind := link.KindTentative
				switch {
				case site.hasInit:
					kind = link.KindDef // extern int x = 1 still defines
				case sv.isExtern || site.isFunc:
					kind = link.KindDecl
				}
				for _, dv := range declVars {
					fc := x.space.And(base, dv.c)
					if x.space.IsFalse(fc) {
						continue
					}
					x.fact(site, kind, joinSig(sv.words, dv.words), fc)
				}
			}
		}
	})
}

// functionDefinition emits the definition fact, or makes a static function
// unit-internal.
func (x *extractor) functionDefinition(n *ast.Node, c cond.Cond) {
	if len(n.Children) == 0 {
		return
	}
	x.collectEnumerators(n, c)
	specs, decl := splitFuncDef(n)
	specVars := x.sigVariants(specs, false)
	sites := x.declSites(decl, c, false)
	declVars := x.sigVariants(decl, false)
	for _, sv := range specVars {
		if sv.isStatic {
			for _, site := range sites {
				x.internalName(site.name, x.space.And(site.c, sv.c))
			}
			continue
		}
		if sv.isTypedef {
			continue
		}
		for _, site := range sites {
			base := x.space.And(site.c, sv.c)
			if x.space.IsFalse(base) {
				continue
			}
			for _, dv := range declVars {
				fc := x.space.And(base, dv.c)
				if x.space.IsFalse(fc) {
					continue
				}
				x.fact(site, link.KindDef, joinSig(sv.words, dv.words), fc)
			}
		}
	}
}

// internalName adds a unit-internal name under c.
func (x *extractor) internalName(name string, c cond.Cond) {
	if x.space.IsFalse(c) {
		return
	}
	if have, ok := x.internal[name]; ok {
		c = x.space.Or(have, c)
	}
	x.internal[name] = c
}

// collectEnumerators registers every Enumerator name in the subtree as a
// unit-internal constant under its path condition.
func (x *extractor) collectEnumerators(n *ast.Node, c cond.Cond) {
	if n == nil || x.space.IsFalse(c) || n.IsError() {
		return
	}
	if n.Kind == ast.KindChoice {
		for _, alt := range n.Alts {
			x.collectEnumerators(alt.Node, x.space.And(c, alt.Cond))
		}
		return
	}
	if n.Label == "Enumerator" && len(n.Children) > 0 && n.Children[0].Kind == ast.KindToken {
		x.internalName(n.Children[0].Text(), c)
	}
	for _, ch := range n.Children {
		x.collectEnumerators(ch, c)
	}
}

// declaratorLabels are the node labels that root one declarator.
var declaratorLabels = map[string]bool{
	"IdentifierDeclarator":  true,
	"PointerDeclarator":     true,
	"ArrayDeclarator":       true,
	"FunctionDeclarator":    true,
	"ParenDeclarator":       true,
	"InitializedDeclarator": true,
	"AttributedDeclarator":  true,
}

// eachDeclRoot finds the individual declarator roots under a declaration's
// declarator part (a single declarator, a comma list, or choices thereof),
// invoking fn with each root and its path condition.
func (x *extractor) eachDeclRoot(n *ast.Node, c cond.Cond, fn func(*ast.Node, cond.Cond)) {
	if n == nil || x.space.IsFalse(c) || n.IsError() {
		return
	}
	switch n.Kind {
	case ast.KindToken:
		return
	case ast.KindChoice:
		for _, alt := range n.Alts {
			x.eachDeclRoot(alt.Node, x.space.And(c, alt.Cond), fn)
		}
		return
	}
	if declaratorLabels[n.Label] {
		fn(n, c)
		return
	}
	for _, ch := range n.Children {
		x.eachDeclRoot(ch, c, fn)
	}
}

// declSite is one declared name within a declarator, with the condition
// under which that spelling exists and the shape classification the fact
// kind depends on.
type declSite struct {
	name      string
	file      string // token's source file ("" falls back to the unit path)
	line, col int
	c         cond.Cond
	isFunc    bool // the name declares a function (not a function pointer)
	hasInit   bool
}

// declSites digs the declarator spine for declared names. inFunc tracks
// whether the innermost wrapper crossed so far is a FunctionDeclarator:
// FunctionDeclarator(Identifier) declares a function, while
// Pointer(FunctionDeclarator(...)) keeps declaring a function (pointer
// result type) and FunctionDeclarator(Paren(Pointer(Identifier))) declares
// a function pointer — an object.
func (x *extractor) declSites(n *ast.Node, c cond.Cond, inFunc bool) []declSite {
	if n == nil || x.space.IsFalse(c) || n.IsError() {
		return nil
	}
	switch n.Kind {
	case ast.KindToken:
		return nil
	case ast.KindChoice:
		var out []declSite
		for _, alt := range n.Alts {
			out = append(out, x.declSites(alt.Node, x.space.And(c, alt.Cond), inFunc)...)
		}
		return out
	}
	switch n.Label {
	case "IdentifierDeclarator":
		if len(n.Children) == 1 && n.Children[0].Kind == ast.KindToken {
			t := n.Children[0].Tok
			return []declSite{{name: t.Text, file: t.File, line: t.Line, col: t.Col, c: c, isFunc: inFunc}}
		}
		return nil
	case "InitializedDeclarator":
		if len(n.Children) == 0 {
			return nil
		}
		sites := x.declSites(n.Children[0], c, inFunc)
		for i := range sites {
			sites[i].hasInit = true
		}
		return sites
	case "FunctionDeclarator":
		if len(n.Children) == 0 {
			return nil
		}
		return x.declSites(n.Children[0], c, true)
	case "ArrayDeclarator":
		if len(n.Children) == 0 {
			return nil
		}
		return x.declSites(n.Children[0], c, false)
	case "PointerDeclarator":
		var out []declSite
		for _, ch := range n.Children {
			if ch != nil && ch.Label != "Pointer" {
				out = append(out, x.declSites(ch, c, false)...)
			}
		}
		return out
	}
	// ParenDeclarator, AttributedDeclarator, and defensive defaults pass the
	// classification through.
	var out []declSite
	for _, ch := range n.Children {
		out = append(out, x.declSites(ch, c, inFunc)...)
	}
	return out
}

// sigVar is one signature fragment variant: the canonical words and the
// condition (relative to the fragment's root) selecting them.
type sigVar struct {
	words     []string
	c         cond.Cond
	isTypedef bool
	isExtern  bool
	isStatic  bool
}

// droppedSpecWords are specifier tokens that never affect link-time type
// identity: storage classes (flagged separately) and function specifiers.
var droppedSpecWords = map[string]string{
	"typedef": "t", "extern": "e", "static": "s",
	"auto": "", "register": "", "inline": "", "_Noreturn": "",
	"_Thread_local": "", "__inline": "", "__inline__": "", "__forceinline": "",
}

// sigVariants builds the canonical signature-word variants of a specifier
// or declarator subtree. Choices fork variants (conditions conjoined down
// the path); sequential children cross-multiply, capped at maxSigVariants
// with deterministic drop order. inParam elides parameter names.
func (x *extractor) sigVariants(n *ast.Node, inParam bool) []sigVar {
	unit := []sigVar{{c: x.space.True()}}
	if n == nil {
		return unit
	}
	if n.IsError() {
		return unit
	}
	switch n.Kind {
	case ast.KindToken:
		t := n.Tok.Text
		if flag, dropped := droppedSpecWords[t]; dropped {
			v := sigVar{c: x.space.True()}
			switch flag {
			case "t":
				v.isTypedef = true
			case "e":
				v.isExtern = true
			case "s":
				v.isStatic = true
			}
			return []sigVar{v}
		}
		return []sigVar{{words: []string{t}, c: x.space.True()}}
	case ast.KindChoice:
		var out []sigVar
		for _, alt := range n.Alts {
			ac := alt.Cond
			for _, v := range x.sigVariants(alt.Node, inParam) {
				vc := x.space.And(ac, v.c)
				if x.space.IsFalse(vc) {
					continue
				}
				v.c = vc
				out = append(out, v)
				if len(out) >= maxSigVariants {
					return out
				}
			}
		}
		if len(out) == 0 {
			return unit
		}
		return out
	}
	switch n.Label {
	case "IdentifierDeclarator":
		if inParam {
			return unit // parameter names never affect the type
		}
		return []sigVar{{words: []string{"@"}, c: x.space.True()}}
	case "InitializedDeclarator":
		if len(n.Children) == 0 {
			return unit
		}
		return x.sigVariants(n.Children[0], inParam) // "=" and initializer excluded
	case "ParameterDeclaration":
		return x.crossChildren(n.Children, true)
	case "StructSpecifier", "StructRef", "EnumSpecifier", "EnumRef":
		return []sigVar{{words: collapseTagged(n), c: x.space.True()}}
	}
	return x.crossChildren(n.Children, inParam)
}

// crossChildren multiplies the children's variants left to right.
func (x *extractor) crossChildren(children []*ast.Node, inParam bool) []sigVar {
	out := []sigVar{{c: x.space.True()}}
	for _, ch := range children {
		if ch == nil {
			continue
		}
		next := out[:0:0]
		for _, a := range out {
			for _, b := range x.sigVariants(ch, inParam) {
				c := x.space.And(a.c, b.c)
				if x.space.IsFalse(c) {
					continue
				}
				words := a.words
				if len(b.words) > 0 {
					words = append(append([]string(nil), a.words...), b.words...)
				}
				next = append(next, sigVar{
					words:     words,
					c:         c,
					isTypedef: a.isTypedef || b.isTypedef,
					isExtern:  a.isExtern || b.isExtern,
					isStatic:  a.isStatic || b.isStatic,
				})
				if len(next) >= maxSigVariants {
					break
				}
			}
			if len(next) >= maxSigVariants {
				break
			}
		}
		if len(next) > 0 {
			out = next
		}
	}
	return out
}

// collapseTagged renders a struct/union/enum specifier as its keyword plus
// tag, ignoring a braced body: link-time type identity for aggregates is
// nominal, and two units each defining "struct pt {...}" agree exactly when
// the tags agree.
func collapseTagged(n *ast.Node) []string {
	var words []string
	for _, ch := range n.Children {
		if ch == nil || ch.Kind != ast.KindToken {
			continue
		}
		t := ch.Tok.Text
		if t == "{" {
			break
		}
		words = append(words, t)
	}
	if len(words) == 1 {
		words = append(words, "<anon>")
	}
	return words
}

func joinSig(spec, decl []string) string {
	n := len(spec) + len(decl)
	if n == 0 {
		return ""
	}
	out := make([]byte, 0, n*8)
	for _, w := range spec {
		if len(out) > 0 {
			out = append(out, ' ')
		}
		out = append(out, w...)
	}
	for _, w := range decl {
		if len(out) > 0 {
			out = append(out, ' ')
		}
		out = append(out, w...)
	}
	return string(out)
}

// fact records one def/decl/tentative sighting, merging repeats (choice
// alternatives landing on the same site and signature) by disjunction.
func (x *extractor) fact(site declSite, kind link.FactKind, sig string, c cond.Cond) {
	if site.name == "" || x.space.IsFalse(c) {
		return
	}
	file := site.file
	if file == "" {
		file = x.unit.File
	}
	key := factKey{name: site.name, kind: kind, file: file, line: site.line, col: site.col, sig: sig}
	if acc, ok := x.facts[key]; ok {
		acc.c = x.space.Or(acc.c, c)
		return
	}
	x.facts[key] = &factAcc{c: c}
}

// finish merges facts and references into canonical order and exports every
// condition through one exporter, preserving formula sharing.
func (x *extractor) finish() *link.Facts {
	ex := x.space.NewExporter()
	bySym := make(map[string][]link.Fact)
	keys := make([]factKey, 0, len(x.facts))
	for k := range x.facts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		switch {
		case a.name != b.name:
			return a.name < b.name
		case a.kind != b.kind:
			return a.kind < b.kind
		case a.line != b.line:
			return a.line < b.line
		case a.col != b.col:
			return a.col < b.col
		default:
			return a.sig < b.sig
		}
	})
	for _, k := range keys {
		bySym[k.name] = append(bySym[k.name], link.Fact{
			Kind: k.kind, File: k.file, Line: k.line, Col: k.col, Sig: k.sig,
			Cond: ex.Export(x.facts[k].c),
		})
	}
	// References: the resolution's escaped uses, minus the unit-internal
	// names. The subtraction distributes over the sightings' disjunction,
	// so one subtraction per use suffices.
	var refs []Use
	for _, u := range x.unit.Resolution().Uses {
		if in, ok := x.internal[u.Tok.Text]; ok {
			u.Escaped = x.space.AndNot(u.Escaped, in)
		}
		if !x.space.IsFalse(u.Escaped) {
			refs = append(refs, u)
		}
	}
	sort.Slice(refs, func(i, j int) bool {
		a, b := refs[i].Tok, refs[j].Tok
		switch {
		case a.Text != b.Text:
			return a.Text < b.Text
		case a.Line != b.Line:
			return a.Line < b.Line
		default:
			return a.Col < b.Col
		}
	})
	for _, u := range refs {
		file := u.Tok.File
		if file == "" {
			file = x.unit.File
		}
		bySym[u.Tok.Text] = append(bySym[u.Tok.Text], link.Fact{
			Kind: link.KindRef, File: file, Line: u.Tok.Line, Col: u.Tok.Col,
			Cond: ex.Export(u.Escaped),
		})
	}
	out := &link.Facts{Unit: x.unit.File}
	for name, facts := range bySym {
		out.Symbols = append(out.Symbols, link.Symbol{Name: name, Facts: facts})
	}
	out.Normalize()
	return out
}

// LinkDiagnostic converts a corpus-level linker finding into a framework
// diagnostic, so the linker's output renders through the same text, JSON,
// and SARIF writers as per-unit passes.
func LinkDiagnostic(f link.Finding) Diagnostic {
	return Diagnostic{
		Pass:            f.Pass(),
		File:            f.File,
		Line:            f.Line,
		Col:             f.Col,
		Msg:             f.Message(),
		CondStr:         f.CondStr,
		Witness:         f.Witness,
		WitnessVerified: f.WitnessVerified,
	}
}

// SortDiags sorts diagnostics into the framework's total output order —
// exported for callers that merge diagnostics from several producers
// (per-unit passes plus linker findings).
func SortDiags(diags []Diagnostic) []Diagnostic { return sortDiags(diags) }
