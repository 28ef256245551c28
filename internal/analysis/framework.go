// Variability-aware analysis framework (modeled on go/analysis): an
// Analyzer is a named pass over one compilation unit's choice AST and
// preprocessor records; passes share the unit's one scoped resolution
// (Unit.Resolution), and the driver threads presence conditions, attaches a
// SAT-verified witness configuration to every diagnostic, and orders the
// output deterministically so results are byte-stable regardless of
// scheduling.
package analysis

import (
	"fmt"
	"sort"

	"repro/internal/ast"
	"repro/internal/cond"
	"repro/internal/guard"
	"repro/internal/preprocessor"
	"repro/internal/token"
)

// Unit bundles the per-unit inputs an analysis run works on. AST and PP may
// each be nil (a unit that failed to parse still has preprocessor records,
// and a hand-built AST needs no preprocessor output); passes must tolerate
// either absence.
type Unit struct {
	File   string
	Space  *cond.Space
	AST    *ast.Node          // choice AST; nil when the parse produced nothing
	PP     *preprocessor.Unit // preprocessor records; nil for AST-only analysis
	Budget *guard.Budget      // optional resource governor (nil: ungoverned)

	res *Resolution // memo of Resolution
}

// Analyzer is one analysis pass.
type Analyzer struct {
	Name string // short lowercase identifier, unique across registered passes
	Doc  string // one-line description
	Run  func(*Pass) error
}

// Pass carries one analyzer's view of a unit and collects its diagnostics.
type Pass struct {
	Analyzer *Analyzer
	Unit     *Unit

	diags []Diagnostic
}

// Report adds a diagnostic. The driver fills in the pass name, drops
// diagnostics whose condition is unsatisfiable, and attaches the witness.
func (p *Pass) Report(d Diagnostic) {
	d.Pass = p.Analyzer.Name
	if d.File == "" {
		d.File = p.Unit.File
	}
	p.diags = append(p.diags, d)
}

// Reportf formats a diagnostic at a token position under condition c.
func (p *Pass) Reportf(tok token.Token, c cond.Cond, format string, args ...interface{}) {
	p.Report(Diagnostic{
		File: tok.File,
		Line: tok.Line,
		Col:  tok.Col,
		Cond: c,
		Msg:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one analysis finding: a source position, a message, and the
// presence condition under which the finding holds, plus the witness
// configuration the driver attaches.
type Diagnostic struct {
	Pass string
	File string
	Line int
	Col  int
	Msg  string
	Cond cond.Cond

	// Driver-filled fields.
	CondStr         string          // condition rendered for output
	Witness         map[string]bool // one configuration exhibiting the finding
	WitnessVerified bool            // witness re-checked on the SAT representation
}

// Stats counts what one analysis run did.
type Stats struct {
	PassesRun         int
	Diagnostics       int
	ByPass            map[string]int
	WitnessChecks     int // witnesses extracted and re-verified
	WitnessFailures   int // witnesses the independent check rejected
	InfeasibleDropped int // diagnostics discarded for unsatisfiable conditions
	ErrorRegions      int // opaque _Error regions skipped in the AST
	PassErrors        int // passes that returned an error (skipped, not fatal)
}

// Result is one unit's analysis output: diagnostics in canonical order.
type Result struct {
	File  string
	Diags []Diagnostic
	Stats Stats
	Errs  []error // per-pass errors (the run continues past them)
}

// Run executes the analyzers over the unit. Passes run in name order; the
// output ordering is a pure function of the unit's content, independent of
// scheduling, map iteration, and worker count.
func Run(u *Unit, analyzers []*Analyzer) *Result {
	res := &Result{File: u.File, Stats: Stats{ByPass: make(map[string]int)}}

	if u.AST != nil {
		res.Stats.ErrorRegions = u.Resolution().ErrorRegions
	}

	sorted := append([]*Analyzer(nil), analyzers...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })

	var diags []Diagnostic
	for _, a := range sorted {
		if !u.Budget.Tick("analysis") {
			break // budget tripped: degrade to the passes already run
		}
		pass := &Pass{Analyzer: a, Unit: u}
		if err := a.Run(pass); err != nil {
			res.Errs = append(res.Errs, fmt.Errorf("%s: %w", a.Name, err))
			res.Stats.PassErrors++
			continue
		}
		res.Stats.PassesRun++
		diags = append(diags, pass.diags...)
	}

	// Attach witnesses: every surviving diagnostic's condition is
	// satisfiable, with a concrete configuration extracted from the
	// condition representation and re-checked on the independent SAT
	// expression form. Merged subparsers share choice nodes, so a pass
	// walking the AST can sight the same finding once per incoming path;
	// identical diagnostics collapse to one before the witness work. The
	// key is the condition itself, not its rendering, which String may
	// elide: two different conditions never collapse.
	type diagKey struct {
		pass, file, msg string
		cond            cond.Cond
		line, col       int
	}
	seen := make(map[diagKey]bool)
	kept := diags[:0]
	for _, d := range diags {
		k := diagKey{d.Pass, d.File, d.Msg, d.Cond, d.Line, d.Col}
		if seen[k] {
			continue
		}
		seen[k] = true
		d.CondStr = u.Space.String(d.Cond)
		w, ok := u.Space.SatOne(d.Cond)
		if !ok {
			res.Stats.InfeasibleDropped++
			continue
		}
		d.Witness = w
		d.WitnessVerified = VerifyWitness(u.Space, d.Cond, w)
		res.Stats.WitnessChecks++
		if !d.WitnessVerified {
			res.Stats.WitnessFailures++
		}
		kept = append(kept, d)
		res.Stats.ByPass[d.Pass]++
	}
	res.Stats.Diagnostics = len(kept)
	res.Diags = sortDiags(kept)
	return res
}

// sortDiags orders diagnostics canonically: position, then pass, then
// message, then condition — a total order on the fields that appear in the
// output, so equal inputs render byte-identically.
func sortDiags(diags []Diagnostic) []Diagnostic {
	sort.SliceStable(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		switch {
		case a.File != b.File:
			return a.File < b.File
		case a.Line != b.Line:
			return a.Line < b.Line
		case a.Col != b.Col:
			return a.Col < b.Col
		case a.Pass != b.Pass:
			return a.Pass < b.Pass
		case a.Msg != b.Msg:
			return a.Msg < b.Msg
		default:
			return a.CondStr < b.CondStr
		}
	})
	return diags
}

// VerifyWitness re-checks a witness configuration without the condition
// representation that produced it: the condition is exported to a
// space-independent formula, converted to a plain SAT expression, and
// evaluated under the assignment (absent variables are false, matching the
// extractor's don't-care completion).
func VerifyWitness(s *cond.Space, c cond.Cond, assign map[string]bool) bool {
	return s.Export(c).Expr().Eval(assign)
}
