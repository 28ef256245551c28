// Package analysis prototypes configuration-preserving semantic analysis —
// the paper's stated future work (§8: "we expect that [semantic analysis],
// much like our configuration-preserving syntactic analysis, will require
// incorporating presence conditions into all functionality, including by
// maintaining multiply-defined symbols").
//
// One scoped traversal of a unit's variability AST (resolve.go) records
// every file-scope declarator with the presence condition under which it
// exists; the definitions among them feed two analyses:
//
//   - ConflictingDefinitions finds names defined more than once under
//     overlapping presence conditions — the variability bug class a
//     single-configuration compiler only detects for the one configuration
//     it builds (cf. the paper's citation of Tartler et al.'s
//     configuration-coverage work);
//   - CoverageReport quantifies, per symbol, how many configurations see
//     it (BDD model counting), surfacing code invisible to common
//     configurations.
package analysis

import (
	"sort"

	"repro/internal/ast"
	"repro/internal/cond"
	"repro/internal/token"
)

// SymbolKind classifies a file-scope definition.
type SymbolKind uint8

// Symbol kinds.
const (
	KindFunction SymbolKind = iota
	KindVariable
	KindTypedef
)

var kindNames = [...]string{"function", "variable", "typedef"}

// String returns the kind's name.
func (k SymbolKind) String() string { return kindNames[k] }

// Symbol is one file-scope definition under a presence condition.
type Symbol struct {
	Name string
	Kind SymbolKind
	File string // the declared token's own file
	Line int    // source line of the declarator
	Col  int
	Cond cond.Cond
}

// Definitions returns the unit's file-scope definitions — function
// definitions, initialized declarators and typedefs — one per source
// position, in first-sighting order. Sightings of one position (a
// declaration FMLR parsed more than once, paper §2.1) are one definition
// under the disjunction of their conditions, with the first sighting's
// kind. Uninitialized extern and plain declarations are tentative and not
// definitions (they do not conflict).
func Definitions(u *Unit) []Symbol {
	type key struct {
		name, file string
		line, col  int
	}
	at := make(map[key]int)
	var out []Symbol
	for _, d := range u.Resolution().Decls {
		var kind SymbolKind
		switch {
		case d.Body:
			kind = KindFunction
		case d.Initialized:
			kind = KindVariable
		case d.Typedef:
			kind = KindTypedef
		default:
			continue
		}
		k := key{d.Tok.Text, u.fileOf(d.Tok), d.Tok.Line, d.Tok.Col}
		if i, ok := at[k]; ok {
			out[i].Cond = u.Space.Or(out[i].Cond, d.Cond)
			continue
		}
		at[k] = len(out)
		out = append(out, Symbol{Name: k.name, Kind: kind, File: k.file, Line: k.line, Col: k.col, Cond: d.Cond})
	}
	return out
}

// fileOf is a token's source file, the unit's own when the token has none.
func (u *Unit) fileOf(t *token.Token) string {
	if t.File != "" {
		return t.File
	}
	return u.File
}

// Conflict reports two definitions of the same name that coexist under a
// feasible configuration.
type Conflict struct {
	Name  string
	A, B  Symbol
	Under cond.Cond // the configurations where both definitions exist
}

// ConflictingDefinitions finds the unit's same-name definition pairs whose
// presence conditions overlap, by name and then in first-sighting order.
// Function-vs-function and variable-vs-anything overlaps are real double
// definitions; typedef-vs-typedef redefinition is legal in C11 but still
// reported (callers may filter by Kind).
func ConflictingDefinitions(u *Unit) []Conflict {
	byName := make(map[string][]Symbol)
	var names []string
	for _, s := range Definitions(u) {
		if _, seen := byName[s.Name]; !seen {
			names = append(names, s.Name)
		}
		byName[s.Name] = append(byName[s.Name], s)
	}
	sort.Strings(names)
	var out []Conflict
	for _, name := range names {
		syms := byName[name]
		for i := 0; i < len(syms); i++ {
			for j := i + 1; j < len(syms); j++ {
				both := u.Space.And(syms[i].Cond, syms[j].Cond)
				if !u.Space.IsFalse(both) {
					out = append(out, Conflict{Name: name, A: syms[i], B: syms[j], Under: both})
				}
			}
		}
	}
	return out
}

// Coverage describes how much of the configuration space sees a symbol.
type Coverage struct {
	Symbol   Symbol
	Fraction float64 // fraction of configurations where the symbol exists
}

// CoverageReport computes, for every definition of the unit, the fraction
// of configurations under which it exists (ModeBDD spaces only; model
// counting is not available on the SAT representation). Results are sorted
// from least to most visible — the least-covered symbols are the ones
// maximal-configuration tools like the paper's allyesconfig discussion
// (§1: "less than 80% of the code blocks") are most likely to miss.
func CoverageReport(u *Unit) []Coverage {
	total := u.Space.SatCount(u.Space.True())
	var out []Coverage
	for _, s := range Definitions(u) {
		out = append(out, Coverage{Symbol: s, Fraction: u.Space.SatCount(s.Cond) / total})
	}
	// Full tie-break chain: Fraction alone leaves equal-coverage symbols in
	// first-sighting order — the report is a total order on its fields.
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		switch {
		case a.Fraction != b.Fraction:
			return a.Fraction < b.Fraction
		case a.Symbol.Name != b.Symbol.Name:
			return a.Symbol.Name < b.Symbol.Name
		case a.Symbol.File != b.Symbol.File:
			return a.Symbol.File < b.Symbol.File
		case a.Symbol.Line != b.Symbol.Line:
			return a.Symbol.Line < b.Symbol.Line
		default:
			return a.Symbol.Col < b.Symbol.Col
		}
	})
	return out
}

func containsLeaf(n *ast.Node, text string) bool {
	found := false
	ast.Walk(n, func(m *ast.Node) bool {
		if m.Kind == ast.KindToken && m.Tok.Text == text {
			found = true
		}
		return !found
	})
	return found
}
