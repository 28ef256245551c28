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

// scope is one C language scope.
type scope struct {
	names map[string]entry
}

// FileDef is one file-scope definition event, recorded in program order when
// tracking is enabled. The region-parallel parser replays each region's def
// stream to validate the typedef seeds it guessed for later regions.
type FileDef struct {
	Name    string
	Cond    cond.Cond
	Typedef bool // true for a typedef definition, false for an object one
}

// tracker accumulates the file-scope observations of one parse: which names
// were ever classified (touched) and which file-scope definitions happened,
// in order. It is shared by pointer across Clone/Merge so the whole subparser
// family of one engine writes into one stream; engines are single-threaded,
// so no locking is needed.
type tracker struct {
	touched map[string]bool
	defs    []FileDef
}

// Table is the conditional symbol table. The zero value is not usable; call
// New.
type Table struct {
	space  *cond.Space
	scopes []scope
	trk    *tracker // nil unless Track was called; shared across Clone/Merge
}

// New returns a table with the file scope open.
func New(s *cond.Space) *Table {
	return &Table{space: s, scopes: []scope{{names: map[string]entry{}}}}
}

// NewSeeded returns a table whose file scope is pre-populated with typedef
// meanings: each name denotes a type under its seed condition and nothing
// otherwise. The region-parallel parser seeds a mid-unit region's table from
// a lexical prescan; only the typedef condition matters because with a single
// open scope Classify never consults object conditions.
func NewSeeded(s *cond.Space, seed map[string]cond.Cond) *Table {
	t := New(s)
	for name, c := range seed {
		t.scopes[0].names[name] = entry{typedefCond: c, objectCond: s.False()}
	}
	return t
}

// Track enables observation recording on this table (and, via the shared
// tracker, on every table later cloned or merged from it).
func (t *Table) Track() {
	if t.trk == nil {
		t.trk = &tracker{touched: map[string]bool{}}
	}
}

// Touched returns the set of names Classify was asked about, or nil when
// tracking is off.
func (t *Table) Touched() map[string]bool {
	if t.trk == nil {
		return nil
	}
	return t.trk.touched
}

// FileDefs returns the ordered file-scope definition events, or nil when
// tracking is off.
func (t *Table) FileDefs() []FileDef {
	if t.trk == nil {
		return nil
	}
	return t.trk.defs
}

// Clone deep-copies the table (the forkContext callback).
func (t *Table) Clone() *Table {
	nt := &Table{space: t.space, scopes: make([]scope, len(t.scopes)), trk: t.trk}
	for i, sc := range t.scopes {
		names := make(map[string]entry, len(sc.names))
		for k, v := range sc.names {
			names[k] = v
		}
		nt.scopes[i] = scope{names: names}
	}
	return nt
}

// EnterScope opens a nested scope.
func (t *Table) EnterScope() {
	t.scopes = append(t.scopes, scope{names: map[string]entry{}})
}

// ExitScope closes the innermost scope.
func (t *Table) ExitScope() {
	if len(t.scopes) > 1 {
		t.scopes = t.scopes[:len(t.scopes)-1]
	}
}

// Depth returns the scope nesting depth.
func (t *Table) Depth() int { return len(t.scopes) }

func (t *Table) top() *scope { return &t.scopes[len(t.scopes)-1] }

// DefineTypedef records that name denotes a type under c in the current
// scope.
func (t *Table) DefineTypedef(name string, c cond.Cond) {
	if t.trk != nil && len(t.scopes) == 1 {
		t.trk.defs = append(t.trk.defs, FileDef{Name: name, Cond: c, Typedef: true})
	}
	sc := t.top()
	e := sc.names[name]
	if e.typedefCond == (cond.Cond{}) {
		e.typedefCond = c
	} else {
		e.typedefCond = t.space.Or(e.typedefCond, c)
	}
	if e.objectCond == (cond.Cond{}) {
		e.objectCond = t.space.False()
	} else {
		// A later typedef shadows an object declaration under c.
		e.objectCond = t.space.AndNot(e.objectCond, c)
	}
	sc.names[name] = e
}

// DefineObject records that name denotes a value under c in the current
// scope (shadowing any typedef meaning under c).
func (t *Table) DefineObject(name string, c cond.Cond) {
	if t.trk != nil && len(t.scopes) == 1 {
		t.trk.defs = append(t.trk.defs, FileDef{Name: name, Cond: c, Typedef: false})
	}
	sc := t.top()
	e := sc.names[name]
	if e.objectCond == (cond.Cond{}) {
		e.objectCond = c
	} else {
		e.objectCond = t.space.Or(e.objectCond, c)
	}
	if e.typedefCond == (cond.Cond{}) {
		e.typedefCond = t.space.False()
	} else {
		e.typedefCond = t.space.AndNot(e.typedefCond, c)
	}
	sc.names[name] = e
}

// Classification reports under which conditions a name denotes a type. The
// lookup honors shadowing: an inner-scope entry hides outer entries only
// under the conditions where the inner entry says something.
type Classification struct {
	TypedefCond cond.Cond // name is a typedef name
	OtherCond   cond.Cond // name is an ordinary identifier
}

// Classify resolves name under use condition c.
func (t *Table) Classify(name string, c cond.Cond) Classification {
	if t.trk != nil {
		t.trk.touched[name] = true
	}
	s := t.space
	remaining := c
	td := s.False()
	for i := len(t.scopes) - 1; i >= 0 && !s.IsFalse(remaining); i-- {
		e, ok := t.scopes[i].names[name]
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
// scope — typedef or object meaning — split at the file scope: local for
// the parameter and block scopes, file for the file scope; either is False
// when there is none. Name resolution uses their disjunction to decide
// whether a use is covered by a declaration under every configuration that
// reaches it; a use that escapes local resolves to a file-scope name or to
// another unit.
func (t *Table) Declared(name string) (local, file cond.Cond) {
	for i := len(t.scopes) - 1; i >= 0; i-- {
		e, ok := t.scopes[i].names[name]
		if !ok {
			continue
		}
		if i == 0 {
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

// CurrentScope returns name's classification conditions in the innermost
// scope only, without consulting outer scopes. The conditional-redefinition
// pass queries it before registering a definition: an overlap with an
// existing same-scope entry is a redefinition, whereas an outer-scope entry
// is legal shadowing. ok is false when the scope has no entry for name.
func (t *Table) CurrentScope(name string) (typedefCond, objectCond cond.Cond, ok bool) {
	e, ok := t.top().names[name]
	if !ok {
		return cond.Cond{}, cond.Cond{}, false
	}
	return e.typedefCond, e.objectCond, true
}

// MayMerge allows merging only at the same scope nesting level (paper
// §5.2).
func (t *Table) MayMerge(o *Table) bool {
	return len(t.scopes) == len(o.scopes)
}

// Merge combines another table into this one: for each scope level, names'
// conditions are disjoined. Both subparsers' registrations were made under
// their own presence conditions, so a plain disjunction is sound.
func (t *Table) Merge(o *Table) *Table {
	s := t.space
	merged := t.Clone()
	for i := range merged.scopes {
		if i >= len(o.scopes) {
			break
		}
		for name, oe := range o.scopes[i].names {
			e, ok := merged.scopes[i].names[name]
			if !ok {
				merged.scopes[i].names[name] = oe
				continue
			}
			e.typedefCond = orDefined(s, e.typedefCond, oe.typedefCond)
			e.objectCond = orDefined(s, e.objectCond, oe.objectCond)
			merged.scopes[i].names[name] = e
		}
	}
	return merged
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

// Names returns the number of distinct names in the innermost scope (for
// tests).
func (t *Table) Names() int { return len(t.top().names) }
