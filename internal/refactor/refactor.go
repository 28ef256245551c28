// Package refactor implements configuration-preserving refactorings — the
// tool class the paper's introduction motivates and its conclusion promises
// ("for future work, we will extend SuperC with support for automated
// refactorings").
//
// The crucial property a variability-aware refactoring needs is exactly
// what the configuration-preserving AST provides: one transformation
// applied once affects *every* configuration consistently, including code
// in conditional branches a single-configuration tool would never see.
// Rename is the canonical example: renaming a function that is defined
// differently under different configurations must rename all definitions
// and all uses, under all presence conditions.
package refactor

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/cgrammar"
	"repro/internal/cond"
	"repro/internal/token"
)

// Rename renames every occurrence of the identifier oldName to newName in
// the configuration-preserving AST, returning a new tree (shared subtrees
// without occurrences are reused) and the occurrence count, broken down by
// the presence conditions under which occurrences exist.
//
// The rename is name-based (C has no modules, and top-level names share one
// namespace); callers that need scope awareness should verify with
// analysis.Index first. Keywords are refused: they lex as identifiers (the
// preprocessor may define macros named like keywords) and a name-based
// rename would otherwise rewrite them.
func Rename(s *cond.Space, root *ast.Node, oldName, newName string) (*ast.Node, *Report) {
	r := &Report{space: s, Old: oldName, New: newName, Cond: s.False()}
	_, oldKw := cgrammar.Keyword(oldName)
	_, newKw := cgrammar.Keyword(newName)
	if oldKw || newKw {
		return root, r
	}
	out := r.rewrite(root, s.True())
	return out, r
}

// Report describes a rename's effect.
type Report struct {
	space       *cond.Space
	Old, New    string
	Occurrences int
	// Cond is the disjunction of the presence conditions of all renamed
	// occurrences: the configurations the refactoring touched.
	Cond cond.Cond
}

func (r *Report) String() string {
	return fmt.Sprintf("renamed %d occurrence(s) of %s to %s under %s",
		r.Occurrences, r.Old, r.New, r.space.String(r.Cond))
}

// rewrite returns n with occurrences renamed; untouched subtrees are
// returned as-is so unrelated structure stays shared.
func (r *Report) rewrite(n *ast.Node, c cond.Cond) *ast.Node {
	if n == nil {
		return nil
	}
	switch n.Kind {
	case ast.KindToken:
		if n.Tok.Kind == token.Identifier && n.Tok.Text == r.Old {
			r.Occurrences++
			r.Cond = r.space.Or(r.Cond, c)
			nt := *n.Tok
			nt.Text = r.New
			return ast.Leaf(nt)
		}
		return n
	case ast.KindChoice:
		changed := false
		alts := make([]ast.Choice, len(n.Alts))
		for i, alt := range n.Alts {
			na := r.rewrite(alt.Node, r.space.And(c, alt.Cond))
			alts[i] = ast.Choice{Cond: alt.Cond, Node: na}
			if na != alt.Node {
				changed = true
			}
		}
		if !changed {
			return n
		}
		return ast.NewChoice(alts...)
	default:
		changed := false
		children := make([]*ast.Node, len(n.Children))
		for i, ch := range n.Children {
			nc := r.rewrite(ch, c)
			children[i] = nc
			if nc != ch {
				changed = true
			}
		}
		if !changed {
			return n
		}
		return &ast.Node{Kind: n.Kind, Label: n.Label, Children: children, Alts: n.Alts}
	}
}

// Collision reports a configuration in which newName already exists, which
// would make the rename capture or conflict. It is nil-free: an empty slice
// means the rename is safe.
type Collision struct {
	Name string
	Cond cond.Cond // configurations where both names occur
}

// CheckCollisions scans the tree for existing occurrences of newName whose
// presence conditions overlap occurrences of oldName. Configuration
// awareness matters here too: a collision confined to configurations where
// the renamed symbol does not exist is harmless.
func CheckCollisions(s *cond.Space, root *ast.Node, oldName, newName string) []Collision {
	oldCond := occurrenceCond(s, root, oldName)
	newCond := occurrenceCond(s, root, newName)
	both := s.And(oldCond, newCond)
	if s.IsFalse(both) {
		return nil
	}
	return []Collision{{Name: newName, Cond: both}}
}

// occurrenceCond returns the disjunction of presence conditions under which
// the identifier occurs in the tree.
func occurrenceCond(s *cond.Space, root *ast.Node, name string) cond.Cond {
	result := s.False()
	var walk func(n *ast.Node, c cond.Cond)
	walk = func(n *ast.Node, c cond.Cond) {
		if n == nil || s.IsFalse(c) {
			return
		}
		switch n.Kind {
		case ast.KindToken:
			if n.Tok.Kind == token.Identifier && n.Tok.Text == name {
				result = s.Or(result, c)
			}
		case ast.KindChoice:
			for _, alt := range n.Alts {
				walk(alt.Node, s.And(c, alt.Cond))
			}
		default:
			for _, ch := range n.Children {
				walk(ch, c)
			}
		}
	}
	walk(root, s.True())
	return result
}
