package analysis

// This file is the per-unit extraction stage feeding the whole-corpus
// variability-aware linker (internal/link). It walks no tree of its own: it
// reads the unit's Resolution and emits, per external symbol,
// presence-conditioned link facts — definitions, tentative definitions,
// extern declarations and prototypes from the file-scope Decls, and
// references that resolve outside the unit's internal names from the
// escaped uses. Conditions leave the unit's space as space-independent
// formulas (one exporter per unit, so the DAG sharing survives), and the
// linker composes them across units through hcache.Canon ids.
//
// The unit-internal name set — static objects and functions, typedefs, and
// every enumerator — is collected while the facts are emitted, and finish
// subtracts it from every reference: a use of a static never becomes a
// cross-unit fact, even when the use precedes the definition. Type
// signatures are canonical strings built from the declaration's specifier
// words and declarator shape (declared name replaced by "@", parameter
// names elided, storage classes dropped, braced struct/enum bodies
// collapsed to their tag), so two units spelling the same type compare
// equal byte-wise; conditional declaration fragments fork the signature
// into per-condition variants, computed once per specifier or declarator
// root.

import (
	"sort"

	"repro/internal/ast"
	"repro/internal/cgrammar"
	"repro/internal/cond"
	"repro/internal/link"
	"repro/internal/token"
)

// maxSigVariants caps the per-declaration signature fork: a declaration
// split by many conditionals crosses its fragments multiplicatively, and
// past this point extra variants are dropped deterministically (first
// variants in choice order win) rather than risking a blowup.
const maxSigVariants = 8

// ExtractLinkFacts reads the unit's resolution and returns its conditional
// link facts in canonical order, with conditions exported from the unit's
// space. Units with no AST yield an empty, non-nil fact set.
func ExtractLinkFacts(u *Unit) *link.Facts {
	x := &extractor{
		unit:     u,
		space:    u.Space,
		internal: make(map[string]cond.Cond),
		facts:    make(map[factKey]*factAcc),
		sigs:     make(map[*ast.Node][]sigVar),
	}
	res := u.Resolution()
	for _, e := range res.Enumerators {
		x.addInternal(e.Tok.Text, e.Cond)
	}
	for _, d := range res.Decls {
		x.decl(d)
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
	sigs     map[*ast.Node][]sigVar // sigVariants of specifier and declarator roots
}

// decl emits one file-scope declarator's facts per specifier variant, or
// makes its name unit-internal: static names, and typedef names outside
// function definitions.
func (x *extractor) decl(d Decl) {
	for _, sv := range x.variants(d.Specs) {
		c := x.space.And(d.Cond, sv.c)
		if x.space.IsFalse(c) {
			continue
		}
		if sv.isStatic || sv.isTypedef {
			if sv.isStatic || !d.Body {
				x.addInternal(d.Tok.Text, c)
			}
			continue
		}
		kind := link.KindTentative
		switch {
		case d.Body || d.Initialized:
			kind = link.KindDef // extern int x = 1 still defines
		case sv.isExtern || d.Function:
			kind = link.KindDecl
		}
		for _, dv := range x.variants(d.Root) {
			if fc := x.space.And(c, dv.c); !x.space.IsFalse(fc) {
				x.fact(d.Tok, kind, joinSig(sv.words, dv.words), fc)
			}
		}
	}
}

// addInternal adds a unit-internal name under c.
func (x *extractor) addInternal(name string, c cond.Cond) {
	if have, ok := x.internal[name]; ok {
		c = x.space.Or(have, c)
	}
	x.internal[name] = c
}

// variants is sigVariants of a specifier or declarator root, computed once
// per node: the declarators of one declaration share its specifiers, and a
// root reached on several paths is one site.
func (x *extractor) variants(n *ast.Node) []sigVar {
	vs, ok := x.sigs[n]
	if !ok {
		vs = x.sigVariants(n, false)
		x.sigs[n] = vs
	}
	return vs
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
	"_Thread_local": "", "__forceinline": "",
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
		if kw, ok := cgrammar.Keyword(t); ok {
			t = kw // gcc's __const is const
		}
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
func (x *extractor) fact(tok *token.Token, kind link.FactKind, sig string, c cond.Cond) {
	key := factKey{name: tok.Text, kind: kind, file: x.unit.fileOf(tok), line: tok.Line, col: tok.Col, sig: sig}
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
		bySym[u.Tok.Text] = append(bySym[u.Tok.Text], link.Fact{
			Kind: link.KindRef, File: x.unit.fileOf(u.Tok), Line: u.Tok.Line, Col: u.Tok.Col,
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
