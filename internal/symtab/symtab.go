// Package symtab implements the configuration-dependent symbol table behind
// SuperC's context-management plugin (paper §5.2).
//
// C is context-sensitive: a name is either a typedef name or an
// object/function/enum-constant name, and the two parse differently
// ("T * p;" is a declaration or a multiplication). In the presence of
// static conditionals a name can be *both*, under different presence
// conditions. The table therefore maps, per C scope, each name to the
// conditions under which it denotes a type and under which it denotes a
// value. The parser's reclassify hook consults it for every identifier; an
// ambiguously-defined name forces an extra subparser fork even without an
// explicit conditional.
package symtab

import (
	"repro/internal/cond"
)

// entry records one name's classification conditions within a scope.
type entry struct {
	typedefCond cond.Cond // name denotes a type
	objectCond  cond.Cond // name denotes a value (object/function/enum constant)
}

// FileDef is one file-scope definition event, recorded in program order when
// tracking is enabled. The region-parallel parser replays each region's def
// stream to validate the typedef seeds it guessed for later regions.
type FileDef struct {
	Name    string
	Cond    cond.Cond
	Typedef bool // true for a typedef definition, false for an object one
}

// Table is the conditional symbol table of one parse. Its scopes are
// indexed by nesting depth, FileScope first and then one per open block,
// and every method takes the caller's depth. One table serves every
// subparser of a parse because live subparsers' presence conditions are
// pairwise disjoint: each defines names only under its own condition and
// classifies them only under a condition within its own, so the table read
// under a subparser's condition at its depth is exactly that subparser's
// context. Forking a context and merging two contexts at one depth are
// therefore identities; leaving a block erases the leaver's condition from
// the block's scope (Exit). The zero value is not usable; call New.
type Table struct {
	space  *cond.Space
	scopes []map[string]entry // scopes[d] is the scope at depth d

	// Observations recorded once Track was called (touched is non-nil):
	// which names were ever classified and which file-scope definitions
	// happened, in order.
	touched map[string]bool
	defs    []FileDef
}

// FileScope is the depth of the file scope; each open block adds one.
const FileScope = 0

// New returns an empty table.
func New(s *cond.Space) *Table {
	return &Table{space: s, scopes: []map[string]entry{{}}}
}

// NewSeeded returns a table whose file scope is pre-populated with typedef
// meanings: each name denotes a type under its seed condition and nothing
// otherwise (a nil seed gives an empty table). The region-parallel parser
// seeds a mid-unit region's table from a lexical prescan; only the typedef
// condition matters because at file scope Classify never consults object
// conditions.
func NewSeeded(s *cond.Space, seed map[string]cond.Cond) *Table {
	t := New(s)
	for name, c := range seed {
		t.scopes[FileScope][name] = entry{typedefCond: c, objectCond: s.False()}
	}
	return t
}

// Track enables observation recording on this table.
func (t *Table) Track() {
	if t.touched == nil {
		t.touched = map[string]bool{}
	}
}

// Touched returns the set of names Classify was asked about, or nil when
// tracking is off.
func (t *Table) Touched() map[string]bool { return t.touched }

// FileDefs returns the ordered file-scope definition events, or nil when
// tracking is off.
func (t *Table) FileDefs() []FileDef { return t.defs }

// scope returns the scope at depth, opening the scopes up to it on demand.
func (t *Table) scope(depth int) map[string]entry {
	for len(t.scopes) <= depth {
		t.scopes = append(t.scopes, map[string]entry{})
	}
	return t.scopes[depth]
}

// Exit erases c from the scope at depth: the configurations under c leave
// the block, while configurations still inside it keep their entries. When
// c is True nobody stays, and the scope is cleared. The file scope is never
// exited.
func (t *Table) Exit(depth int, c cond.Cond) {
	if depth <= FileScope || depth >= len(t.scopes) {
		return
	}
	sc := t.scopes[depth]
	if t.space.IsTrue(c) {
		clear(sc)
		return
	}
	for name, e := range sc {
		e.typedefCond = t.space.AndNot(e.typedefCond, c)
		e.objectCond = t.space.AndNot(e.objectCond, c)
		if t.space.IsFalse(e.typedefCond) && t.space.IsFalse(e.objectCond) {
			delete(sc, name)
		} else {
			sc[name] = e
		}
	}
}

// Define records that name denotes a type (typedef) or a value under c in
// the scope at depth, shadowing the other meaning under c.
func (t *Table) Define(name string, depth int, c cond.Cond, typedef bool) {
	if t.touched != nil && depth == FileScope {
		t.defs = append(t.defs, FileDef{Name: name, Cond: c, Typedef: typedef})
	}
	sc := t.scope(depth)
	e := sc[name]
	def, other := &e.objectCond, &e.typedefCond
	if typedef {
		def, other = other, def
	}
	if *def == (cond.Cond{}) {
		*def = c
	} else {
		*def = t.space.Or(*def, c)
	}
	if *other == (cond.Cond{}) {
		*other = t.space.False()
	} else {
		*other = t.space.AndNot(*other, c)
	}
	sc[name] = e
}

// Classification reports under which conditions a name denotes a type. The
// lookup honors shadowing: an inner-scope entry hides outer entries only
// under the conditions where the inner entry says something.
type Classification struct {
	TypedefCond cond.Cond // name is a typedef name
	OtherCond   cond.Cond // name is an ordinary identifier
}

// Classify resolves name under use condition c at depth.
func (t *Table) Classify(name string, depth int, c cond.Cond) Classification {
	if t.touched != nil {
		t.touched[name] = true
	}
	s := t.space
	remaining := c
	td := s.False()
	for i := min(depth, len(t.scopes)-1); i >= 0 && !s.IsFalse(remaining); i-- {
		e, ok := t.scopes[i][name]
		if !ok {
			continue
		}
		td = s.Or(td, s.And(remaining, e.typedefCond))
		covered := s.Or(e.typedefCond, e.objectCond)
		remaining = s.AndNot(remaining, covered)
	}
	// Names never declared (remaining) are ordinary identifiers.
	return Classification{
		TypedefCond: td,
		OtherCond:   s.AndNot(c, td),
	}
}

// Declared returns the conditions under which name has a declaration in
// scope at depth — typedef or object meaning — split at the file scope:
// local for the parameter and block scopes, file for the file scope; either
// is False when there is none. Name resolution uses their disjunction to
// decide whether a use is covered by a declaration under every
// configuration that reaches it; a use that escapes local resolves to a
// file-scope name or to another unit.
func (t *Table) Declared(name string, depth int) (local, file cond.Cond) {
	for i := min(depth, len(t.scopes)-1); i >= 0; i-- {
		e, ok := t.scopes[i][name]
		if !ok {
			continue
		}
		if i == FileScope {
			file = orDefined(t.space, e.typedefCond, e.objectCond)
		} else {
			local = orDefined(t.space, local, orDefined(t.space, e.typedefCond, e.objectCond))
		}
	}
	return t.orFalse(local), t.orFalse(file)
}

// orFalse maps the zero Cond ("no entry") to False.
func (t *Table) orFalse(c cond.Cond) cond.Cond {
	if c == (cond.Cond{}) {
		return t.space.False()
	}
	return c
}

// CurrentScope returns name's classification conditions in the scope at
// depth only, without consulting outer scopes. The conditional-redefinition
// check queries it before registering a definition: an overlap with an
// existing same-scope entry is a redefinition, whereas an outer-scope entry
// is legal shadowing. ok is false when the scope has no entry for name.
func (t *Table) CurrentScope(name string, depth int) (typedefCond, objectCond cond.Cond, ok bool) {
	if depth >= len(t.scopes) {
		return cond.Cond{}, cond.Cond{}, false
	}
	e, ok := t.scopes[depth][name]
	if !ok {
		return cond.Cond{}, cond.Cond{}, false
	}
	return e.typedefCond, e.objectCond, true
}

func orDefined(s *cond.Space, a, b cond.Cond) cond.Cond {
	zero := cond.Cond{}
	switch {
	case a == zero:
		return b
	case b == zero:
		return a
	default:
		return s.Or(a, b)
	}
}
