// Package undefuse reports identifier uses that some configurations reach
// without a declaration: the name is declared under one presence condition
// (say, inside #ifdef CONFIG_X) but used under a weaker one, so the
// configurations in the difference fail to compile. Names never declared at
// all are skipped — every configuration fails identically, which an
// ordinary compiler already reports; the variability bug is the partial
// case, and the witness pins a failing configuration.
package undefuse

import "repro/internal/analysis"

// Analyzer is the conditionally-undeclared-use pass.
var Analyzer = &analysis.Analyzer{
	Name: "undefuse",
	Doc:  "report identifier uses undeclared under some configurations that reach them",
	Run:  run,
}

func run(p *analysis.Pass) error {
	s := p.Unit.Space
	for _, u := range p.Unit.Resolution().Uses {
		// A name never declared under any configuration containing the use
		// is a uniform error an ordinary compiler reports, not a
		// variability bug; the check is global — hoisting can order an
		// alternative with the use before the alternative with the
		// declaration. (Top-level uses leave Declared false: only function
		// bodies are checked.)
		if !u.Declared || s.IsFalse(u.Missing) {
			continue
		}
		p.Reportf(*u.Tok, u.Missing, "identifier %q is undeclared under some configurations reaching this use", u.Tok.Text)
	}
	return nil
}
