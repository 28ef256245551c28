// Package condredef reports names defined more than once under overlapping
// presence conditions — the configuration-dependent double definition a
// single-configuration compiler only sees for the one configuration it
// builds. It is scope-aware (an inner-scope definition legally shadows an
// outer one; only same-scope overlap is a redefinition) and type-kind-aware
// (a name that is a typedef under one configuration and an object under an
// overlapping one is reported as a kind conflict, the nastier bug because it
// changes how downstream code parses).
package condredef

import "repro/internal/analysis"

// Analyzer is the conditional-redefinition pass.
var Analyzer = &analysis.Analyzer{
	Name: "condredef",
	Doc:  "report same-scope redefinitions under overlapping presence conditions",
	Run:  run,
}

func run(p *analysis.Pass) error {
	// File scope: the resolution's file-scope definitions; report
	// overlapping pairs kind-aware, at the later definition.
	for _, c := range analysis.ConflictingDefinitions(p.Unit) {
		p.Report(analysis.Diagnostic{
			File: c.B.File, Line: c.B.Line, Col: c.B.Col,
			Cond: c.Under,
			Msg:  conflictMsg(c),
		})
	}

	// Block scopes: the resolution's same-scope overlaps.
	for _, d := range p.Unit.Resolution().Redefs {
		if !d.CrossKind {
			p.Reportf(*d.Tok, d.Cond, "%q redefined in the same scope under an overlapping condition", d.Tok.Text)
			continue
		}
		kinds := "an object and a typedef"
		if d.Typedef {
			kinds = "a typedef and an object"
		}
		p.Reportf(*d.Tok, d.Cond, "%q is %s in the same scope under an overlapping condition", d.Tok.Text, kinds)
	}
	return nil
}

func conflictMsg(c analysis.Conflict) string {
	if c.A.Kind == c.B.Kind {
		if c.A.Kind == analysis.KindTypedef {
			return "typedef \"" + c.Name + "\" redefined under an overlapping condition"
		}
		return c.A.Kind.String() + " \"" + c.Name + "\" defined twice under an overlapping condition"
	}
	return "\"" + c.Name + "\" defined as " + c.A.Kind.String() + " and as " +
		c.B.Kind.String() + " under an overlapping condition"
}
