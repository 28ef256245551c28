// Package analysis prototypes configuration-preserving semantic analysis —
// the paper's stated future work (§8: "we expect that [semantic analysis],
// much like our configuration-preserving syntactic analysis, will require
// incorporating presence conditions into all functionality, including by
// maintaining multiply-defined symbols").
//
// It builds a cross-configuration symbol index from a variability AST:
// every top-level definition is recorded with the presence condition under
// which it exists. Two analyses run over the index:
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
)

// SymbolKind classifies an indexed definition.
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

// Symbol is one top-level definition under a presence condition.
type Symbol struct {
	Name string
	Kind SymbolKind
	File string
	Line int // source line of the declarator
	Col  int
	Cond cond.Cond
}

// sourceKey identifies a definition by its source position: FMLR may parse
// the same source tokens several times for different configurations (paper
// §2.1), producing distinct AST nodes for one textual definition.
func (s Symbol) sourceKey() [3]interface{} {
	return [3]interface{}{s.File, s.Line, s.Col}
}

// Index is a cross-configuration symbol index.
type Index struct {
	space   *cond.Space
	byName  map[string][]Symbol
	ordered []string
}

// NewIndex returns an empty index over the given condition space.
func NewIndex(space *cond.Space) *Index {
	return &Index{space: space, byName: make(map[string][]Symbol)}
}

// Space returns the index's condition space.
func (ix *Index) Space() *cond.Space { return ix.space }

// AddUnit indexes the top-level definitions of one compilation unit's AST.
func (ix *Index) AddUnit(file string, root *ast.Node) {
	ix.walk(file, root, ix.space.True())
}

func (ix *Index) walk(file string, n *ast.Node, c cond.Cond) {
	if n == nil || ix.space.IsFalse(c) {
		return
	}
	switch n.Kind {
	case ast.KindChoice:
		for _, alt := range n.Alts {
			ix.walk(file, alt.Node, ix.space.And(c, alt.Cond))
		}
		return
	case ast.KindToken:
		return
	}
	switch n.Label {
	case "FunctionDefinition":
		if name, line, col := declaredNamePos(n); name != "" {
			ix.add(Symbol{Name: name, Kind: KindFunction, File: file, Line: line, Col: col, Cond: c})
		}
		return
	case "Declaration":
		ix.addDeclaration(file, n, c)
		return
	}
	for _, ch := range n.Children {
		ix.walk(file, ch, c)
	}
}

// addDeclaration indexes a top-level declaration: typedefs index as
// typedefs; declarators with initializers index as variable definitions.
// Uninitialized extern/plain declarations are tentative and skipped (they
// do not conflict).
func (ix *Index) addDeclaration(file string, n *ast.Node, c cond.Cond) {
	if len(n.Children) < 2 {
		return
	}
	isTypedef := containsLeaf(n.Children[0], "typedef")
	var walkDecls func(m *ast.Node, c cond.Cond)
	walkDecls = func(m *ast.Node, c cond.Cond) {
		if m == nil || ix.space.IsFalse(c) {
			return
		}
		switch m.Kind {
		case ast.KindChoice:
			for _, alt := range m.Alts {
				walkDecls(alt.Node, ix.space.And(c, alt.Cond))
			}
			return
		case ast.KindToken:
			return
		}
		if m.Label == "InitializedDeclarator" {
			if name, line, col := declaredNamePos(m); name != "" {
				ix.add(Symbol{Name: name, Kind: KindVariable, File: file, Line: line, Col: col, Cond: c})
			}
			return
		}
		if isTypedef && m.Label == "IdentifierDeclarator" && len(m.Children) == 1 {
			leaf := m.Children[0]
			ix.add(Symbol{Name: leaf.Text(), Kind: KindTypedef, File: file,
				Line: leaf.Tok.Line, Col: leaf.Tok.Col, Cond: c})
			return
		}
		for _, ch := range m.Children {
			walkDecls(ch, c)
		}
	}
	walkDecls(n.Children[1], c)
}

// add records a definition. The same textual definition can surface as
// several AST nodes (shared tokens are parsed once per configuration group,
// paper §2.1) and the same node can be reachable through several choice
// alternatives; sightings at one source position are one definition whose
// condition is the disjunction of the paths.
func (ix *Index) add(s Symbol) {
	if _, seen := ix.byName[s.Name]; !seen {
		ix.ordered = append(ix.ordered, s.Name)
	}
	syms := ix.byName[s.Name]
	key := s.sourceKey()
	for i := range syms {
		if syms[i].sourceKey() == key {
			syms[i].Cond = ix.space.Or(syms[i].Cond, s.Cond)
			return
		}
	}
	ix.byName[s.Name] = append(syms, s)
}

// Symbols returns all definitions of a name.
func (ix *Index) Symbols(name string) []Symbol { return ix.byName[name] }

// Names returns the indexed names in first-seen order.
func (ix *Index) Names() []string { return ix.ordered }

// Len returns the total number of indexed definitions.
func (ix *Index) Len() int {
	n := 0
	for _, syms := range ix.byName {
		n += len(syms)
	}
	return n
}

// Conflict reports two definitions of the same name that coexist under a
// feasible configuration.
type Conflict struct {
	Name  string
	A, B  Symbol
	Under cond.Cond // the configurations where both definitions exist
}

// ConflictingDefinitions finds same-name definition pairs whose presence
// conditions overlap. Function-vs-function and variable-vs-anything
// overlaps are real double definitions; typedef-vs-typedef redefinition is
// legal in C11 but still reported (callers may filter by Kind).
func (ix *Index) ConflictingDefinitions() []Conflict {
	var out []Conflict
	names := append([]string(nil), ix.ordered...)
	sort.Strings(names)
	for _, name := range names {
		syms := ix.byName[name]
		for i := 0; i < len(syms); i++ {
			for j := i + 1; j < len(syms); j++ {
				both := ix.space.And(syms[i].Cond, syms[j].Cond)
				if !ix.space.IsFalse(both) {
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

// CoverageReport computes, for every definition, the fraction of
// configurations under which it exists (ModeBDD spaces only; model counting
// is not available on the SAT representation). Results are sorted from
// least to most visible — the least-covered symbols are the ones
// maximal-configuration tools like the paper's allyesconfig discussion
// (§1: "less than 80% of the code blocks") are most likely to miss.
func (ix *Index) CoverageReport() []Coverage {
	total := ix.space.SatCount(ix.space.True())
	var out []Coverage
	for _, name := range ix.ordered {
		for _, s := range ix.byName[name] {
			out = append(out, Coverage{
				Symbol:   s,
				Fraction: ix.space.SatCount(s.Cond) / total,
			})
		}
	}
	// Full tie-break chain: Fraction alone leaves equal-coverage symbols in
	// insertion order, which depends on how units were fed to the index —
	// the report must be byte-stable across worker counts.
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

// declaredNamePos digs out the first identifier declarator beneath a
// declaration or function definition, staying on the declarator spine.
func declaredNamePos(n *ast.Node) (name string, line, col int) {
	ast.Walk(n, func(m *ast.Node) bool {
		if name != "" {
			return false
		}
		if m.Label == "IdentifierDeclarator" && len(m.Children) == 1 && m.Children[0].Kind == ast.KindToken {
			leaf := m.Children[0]
			name, line, col = leaf.Text(), leaf.Tok.Line, leaf.Tok.Col
			return false
		}
		switch m.Label {
		case "CompoundStatement", "BracedInitializer", "StructSpecifier",
			"EnumSpecifier", "ParameterDeclaration":
			return false
		}
		return true
	})
	return name, line, col
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
