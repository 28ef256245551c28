// Package deadbranch reports conditional branches that no configuration can
// reach: #if/#elif/#else blocks whose condition contradicts the enclosing
// conditionals or whose earlier siblings already cover every configuration
// (the preprocessor records these as it drops the content), plus choice-AST
// alternatives that are infeasible on their path — the same bug class
// undertaker's dead-#ifdef analysis finds, here with a witness.
package deadbranch

import (
	"repro/internal/analysis"
	"repro/internal/ast"
	"repro/internal/token"
)

// Analyzer is the dead-branch pass.
var Analyzer = &analysis.Analyzer{
	Name: "deadbranch",
	Doc:  "report preprocessor branches and AST alternatives no configuration reaches",
	Run:  run,
}

func run(p *analysis.Pass) error {
	u := p.Unit
	if u.PP != nil {
		for _, r := range u.PP.DeadBranches {
			p.Reportf(r.Tok, r.Cond, "%s", r.Msg)
		}
	}
	if u.AST == nil {
		return nil
	}
	// Choice-node invariant: an alternative that is satisfiable on its own
	// but selected by no configuration is dead structure. Merged subparsers
	// share choice nodes across paths, so one incoming path excluding an
	// alternative is normal; the alternative is dead only when the union of
	// every path condition reaching its node misses it.
	for _, r := range u.Resolution().Reach {
		for _, alt := range r.Node.Alts {
			if alt.Node == nil {
				continue
			}
			if !u.Space.IsFalse(alt.Cond) && u.Space.IsFalse(u.Space.And(r.Cond, alt.Cond)) {
				p.Reportf(firstTok(alt.Node), alt.Cond,
					"choice alternative is infeasible on its path: no configuration selects it")
			}
		}
	}
	return nil
}

// firstTok finds the leftmost token beneath n for positioning; the zero
// token (unit-level position) when the subtree has none.
func firstTok(n *ast.Node) token.Token {
	var tok token.Token
	found := false
	ast.Walk(n, func(m *ast.Node) bool {
		if found {
			return false
		}
		if m.Kind == ast.KindToken && m.Tok != nil {
			tok, found = *m.Tok, true
			return false
		}
		return true
	})
	return tok
}
