// Package link implements the whole-corpus variability-aware linker: it
// joins per-unit conditional link facts — presence-conditioned definitions,
// tentative definitions, extern declarations, and references of external
// symbols — and reports the cross-unit bug classes no single-configuration
// toolchain can see:
//
//   - undef-ref: some configuration references a symbol no unit defines;
//   - multidef: some configuration links two non-tentative definitions;
//   - type-mismatch: a declaration or definition's type conflicts with
//     another unit's under an overlapping configuration.
//
// Facts carry their conditions as space-independent cond.Formula values
// (each unit builds its BDD variables in its own first-use order), and the
// linker composes them in one fresh ModeBDD space, canonicalizing across
// unit spaces through hcache.Canon ids so equal boolean functions import
// once regardless of which unit exported them. Every finding is SAT-gated,
// carries a concrete witness configuration re-verified on the independent
// SAT evaluation route, and the finding list is a total deterministic order
// — a pure function of the fact set, byte-stable at any worker count.
package link

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cond"
	"repro/internal/hcache"
	"repro/internal/stats"
)

// FactKind classifies one conditional link fact.
type FactKind uint8

// Fact kinds. The order is part of the canonical fact order (codec and
// linker both sort by it), so new kinds append.
const (
	KindDef       FactKind = iota // non-tentative external definition
	KindTentative                 // tentative definition (uninitialized, non-extern object)
	KindDecl                      // extern declaration or function prototype
	KindRef                       // reference resolving outside the unit's internal names
)

var kindNames = [...]string{"def", "tentative", "decl", "ref"}

// String returns the kind's wire-stable name.
func (k FactKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Fact is one sighting of an external symbol in one unit: the kind, the
// source anchor, the canonical type signature (definitions, tentatives, and
// declarations only; "" for references), and the presence condition under
// which the sighting exists, exported from the unit's space.
type Fact struct {
	Kind FactKind
	File string
	Line int
	Col  int
	Sig  string
	Cond *cond.Formula
}

// Symbol groups one external symbol's facts within a unit, sorted in
// canonical fact order.
type Symbol struct {
	Name  string
	Facts []Fact
}

// Facts is one compilation unit's conditional link facts: symbols sorted by
// name, facts per symbol in canonical order. Extraction
// (analysis.ExtractLinkFacts) guarantees the ordering; Normalize restores
// it for hand-built or decoded fact sets.
type Facts struct {
	Unit    string
	Symbols []Symbol
}

// Normalize sorts symbols by name and each symbol's facts canonically, so
// Encode output and Link input order are pure functions of the fact set.
func (f *Facts) Normalize() {
	sort.Slice(f.Symbols, func(i, j int) bool { return f.Symbols[i].Name < f.Symbols[j].Name })
	for i := range f.Symbols {
		facts := f.Symbols[i].Facts
		sort.Slice(facts, func(a, b int) bool { return factLess(facts[a], facts[b]) })
	}
}

func factLess(a, b Fact) bool {
	switch {
	case a.Kind != b.Kind:
		return a.Kind < b.Kind
	case a.File != b.File:
		return a.File < b.File
	case a.Line != b.Line:
		return a.Line < b.Line
	case a.Col != b.Col:
		return a.Col < b.Col
	default:
		return a.Sig < b.Sig
	}
}

// Count returns the total number of facts.
func (f *Facts) Count() int {
	n := 0
	for _, s := range f.Symbols {
		n += len(s.Facts)
	}
	return n
}

// Finding is one linker diagnostic: the family, the symbol, the anchor site
// (always a fact site of one input unit), the other site involved for the
// pairwise families, and the SAT-gated condition with its witness.
type Finding struct {
	Family string // "undef-ref", "multidef", or "type-mismatch"
	Symbol string

	Unit string // unit owning the anchor site
	File string
	Line int
	Col  int

	OtherUnit string // second site (multidef, type-mismatch); "" otherwise
	OtherFile string
	OtherLine int
	OtherCol  int

	SigA string // anchor site's signature (type-mismatch); "" otherwise
	SigB string // other site's signature (type-mismatch); "" otherwise

	Cond            cond.Cond // in the linker's space; not serialized
	CondStr         string
	Witness         map[string]bool
	WitnessVerified bool
}

// Message renders the finding's human-readable message. Both the in-process
// CLI path and the daemon wire path build diagnostics through it, so the
// two render byte-identically.
func (f *Finding) Message() string {
	switch f.Family {
	case "undef-ref":
		return fmt.Sprintf("symbol %q is referenced under configurations where no unit defines it", f.Symbol)
	case "multidef":
		return fmt.Sprintf("symbol %q is also defined at %s under an overlapping configuration",
			f.Symbol, f.otherPos())
	case "type-mismatch":
		return fmt.Sprintf("symbol %q has type %q here but %q at %s under an overlapping configuration",
			f.Symbol, f.SigA, f.SigB, f.otherPos())
	}
	return fmt.Sprintf("symbol %q: %s", f.Symbol, f.Family)
}

func (f *Finding) otherPos() string {
	return fmt.Sprintf("%s:%d:%d", f.OtherFile, f.OtherLine, f.OtherCol)
}

// Pass returns the analysis pass name the finding surfaces under.
func (f *Finding) Pass() string { return "link/" + f.Family }

// Stats counts what one link run did.
type Stats struct {
	Units           int // fact sets joined
	Symbols         int // distinct external symbols
	Facts           int // total facts
	SATChecks       int // satisfiability gates evaluated
	Findings        int
	ByFamily        map[string]int
	WitnessChecks   int // witnesses extracted and independently re-verified
	WitnessFailures int // witnesses the independent evaluation rejected
}

// families are the finding families, in the order Fields counts them.
var families = []string{"undef-ref", "multidef", "type-mismatch"}

// Fields names the Stats counters for the metrics registry, plus one
// findings counter per family: harness runs and superd's /v1/link totals
// render these names.
var Fields = func() stats.Fields[Stats] {
	fs := stats.Fields[Stats]{
		stats.NewField("link_units", stats.KindCounter, "Fact sets joined.", func(s *Stats) int64 { return int64(s.Units) }),
		stats.NewField("link_symbols", stats.KindCounter, "Distinct external symbols.", func(s *Stats) int64 { return int64(s.Symbols) }),
		stats.NewField("link_facts", stats.KindCounter, "Link facts joined.", func(s *Stats) int64 { return int64(s.Facts) }),
		stats.NewField("link_findings", stats.KindCounter, "Link findings reported.", func(s *Stats) int64 { return int64(s.Findings) }),
		stats.NewField("link_sat_checks", stats.KindCounter, "Satisfiability gates evaluated.", func(s *Stats) int64 { return int64(s.SATChecks) }),
		stats.NewField("link_witness_checks", stats.KindCounter, "Finding witnesses extracted and re-verified.", func(s *Stats) int64 { return int64(s.WitnessChecks) }),
		stats.NewField("link_witness_failures", stats.KindCounter, "Finding witnesses the independent evaluation rejected.", func(s *Stats) int64 { return int64(s.WitnessFailures) }),
	}
	for _, f := range families {
		fs = append(fs, stats.NewField("link_findings_"+strings.ReplaceAll(f, "-", "_"), stats.KindCounter,
			"Link findings of family "+f+".", func(s *Stats) int64 { return int64(s.ByFamily[f]) }))
	}
	return fs
}()

// Result is one corpus-wide link run: findings in total deterministic
// order, plus the run's counters. Space is the linker's own ModeBDD space
// that every Finding.Cond lives in.
type Result struct {
	Findings []Finding
	Stats    Stats
	Space    *cond.Space
}

// site is one fact joined corpus-wide: the owning unit plus the fact with
// its condition imported into the linker's space.
type site struct {
	unit string
	fact Fact
	cond cond.Cond
}

func siteLess(a, b site) bool {
	switch {
	case a.unit != b.unit:
		return a.unit < b.unit
	case a.fact.File != b.fact.File:
		return a.fact.File < b.fact.File
	case a.fact.Line != b.fact.Line:
		return a.fact.Line < b.fact.Line
	case a.fact.Col != b.fact.Col:
		return a.fact.Col < b.fact.Col
	case a.fact.Kind != b.fact.Kind:
		return a.fact.Kind < b.fact.Kind
	default:
		return a.fact.Sig < b.fact.Sig
	}
}

// Link joins the units' facts corpus-wide and reports every SAT-gated
// finding. canon canonicalizes conditions across unit spaces; nil gets a
// fresh canonicalizer. The input slices are not modified; units sharing a
// Unit name contribute independently (their facts simply join).
func Link(units []*Facts, canon *hcache.Canon) *Result {
	if canon == nil {
		canon = hcache.NewCanon()
	}
	space := cond.NewSpace(cond.ModeBDD)
	im := space.NewImporter()
	// Conditions import once per boolean function: the Canon id is the
	// cross-space identity, so equal conditions exported from different unit
	// spaces (different formula pointers, different variable orders) land on
	// the same imported cond — and the linker's variable order stays a pure
	// function of the sorted fact stream.
	byID := make(map[string]cond.Cond)
	importCond := func(f *cond.Formula) cond.Cond {
		if f == nil {
			return space.True()
		}
		id := canon.ID(f)
		if c, ok := byID[id]; ok {
			return c
		}
		c := im.Import(f)
		byID[id] = c
		return c
	}

	res := &Result{Space: space, Stats: Stats{ByFamily: make(map[string]int)}}

	// Gather sites per symbol in deterministic order: units sorted by name,
	// symbols and facts already canonically ordered within each unit.
	ordered := make([]*Facts, 0, len(units))
	for _, u := range units {
		if u != nil {
			ordered = append(ordered, u)
		}
	}
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Unit < ordered[j].Unit })
	bySym := make(map[string][]site)
	var names []string
	for _, u := range ordered {
		res.Stats.Units++
		for _, s := range u.Symbols {
			if _, seen := bySym[s.Name]; !seen {
				names = append(names, s.Name)
			}
			for _, f := range s.Facts {
				bySym[s.Name] = append(bySym[s.Name], site{unit: u.Unit, fact: f, cond: importCond(f.Cond)})
				res.Stats.Facts++
			}
		}
	}
	sort.Strings(names)
	res.Stats.Symbols = len(names)

	sat := func(c cond.Cond) bool {
		res.Stats.SATChecks++
		return !space.IsFalse(c)
	}

	for _, name := range names {
		sites := append([]site(nil), bySym[name]...)
		sort.SliceStable(sites, siteSorter(sites))

		var defs, providers, typed []site // defs: non-tentative; providers: defs+tentatives
		var refs []site
		provided := space.False()
		for _, s := range sites {
			switch s.fact.Kind {
			case KindDef:
				defs = append(defs, s)
				providers = append(providers, s)
				provided = space.Or(provided, s.cond)
			case KindTentative:
				providers = append(providers, s)
				provided = space.Or(provided, s.cond)
			case KindRef:
				refs = append(refs, s)
			}
			if s.fact.Sig != "" && s.fact.Kind != KindRef {
				typed = append(typed, s)
			}
		}
		_ = providers

		// undef-ref: each reference site whose condition escapes the union
		// of all defining conditions is reachable in a configuration that
		// fails to link.
		for _, r := range refs {
			miss := space.AndNot(r.cond, provided)
			if !sat(miss) {
				continue
			}
			res.report(Finding{
				Family: "undef-ref", Symbol: name,
				Unit: r.unit, File: r.fact.File, Line: r.fact.Line, Col: r.fact.Col,
				Cond: miss,
			})
		}

		// multidef: two non-tentative definitions whose conditions overlap
		// coexist in some configuration's link. The finding anchors at the
		// later site (sorted order) and names the earlier one.
		for i := 0; i < len(defs); i++ {
			for j := i + 1; j < len(defs); j++ {
				both := space.And(defs[i].cond, defs[j].cond)
				if !sat(both) {
					continue
				}
				res.report(Finding{
					Family: "multidef", Symbol: name,
					Unit: defs[j].unit, File: defs[j].fact.File, Line: defs[j].fact.Line, Col: defs[j].fact.Col,
					OtherUnit: defs[i].unit, OtherFile: defs[i].fact.File, OtherLine: defs[i].fact.Line, OtherCol: defs[i].fact.Col,
					Cond: both,
				})
			}
		}

		// type-mismatch: signatures partition the typed sites; two groups
		// with different signatures and overlapping conditions conflict. One
		// finding per signature pair, anchored at each group's first site.
		groups := sigGroups(space, typed)
		for i := 0; i < len(groups); i++ {
			for j := i + 1; j < len(groups); j++ {
				both := space.And(groups[i].cond, groups[j].cond)
				if !sat(both) {
					continue
				}
				a, b := groups[j].first, groups[i].first
				res.report(Finding{
					Family: "type-mismatch", Symbol: name,
					Unit: a.unit, File: a.fact.File, Line: a.fact.Line, Col: a.fact.Col,
					OtherUnit: b.unit, OtherFile: b.fact.File, OtherLine: b.fact.Line, OtherCol: b.fact.Col,
					SigA: a.fact.Sig, SigB: b.fact.Sig,
					Cond: both,
				})
			}
		}
	}

	sortFindings(res.Findings)
	return res
}

func siteSorter(sites []site) func(i, j int) bool {
	return func(i, j int) bool { return siteLess(sites[i], sites[j]) }
}

// sigGroup is the sites sharing one signature, with their disjoined
// condition and the first site in canonical order as the group's anchor.
type sigGroup struct {
	sig   string
	cond  cond.Cond
	first site
}

func sigGroups(space *cond.Space, typed []site) []sigGroup {
	idx := make(map[string]int)
	var out []sigGroup
	for _, s := range typed {
		i, ok := idx[s.fact.Sig]
		if !ok {
			idx[s.fact.Sig] = len(out)
			out = append(out, sigGroup{sig: s.fact.Sig, cond: s.cond, first: s})
			continue
		}
		out[i].cond = space.Or(out[i].cond, s.cond)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].sig < out[j].sig })
	return out
}

// report attaches the condition rendering and the doubly-checked witness,
// then records the finding. Conditions are rendered in the linker's space;
// the witness is re-verified by exporting the condition to the
// space-independent formula and evaluating its SAT expression — the same
// independent route the per-unit analysis driver uses.
func (r *Result) report(f Finding) {
	f.CondStr = r.Space.String(f.Cond)
	w, ok := r.Space.SatOne(f.Cond)
	if !ok {
		return // SAT gate raced nothing: IsFalse passed, so this cannot happen
	}
	f.Witness = w
	f.WitnessVerified = r.Space.Export(f.Cond).Expr().Eval(w)
	r.Stats.WitnessChecks++
	if !f.WitnessVerified {
		r.Stats.WitnessFailures++
	}
	r.Findings = append(r.Findings, f)
	r.Stats.Findings++
	r.Stats.ByFamily[f.Family]++
}

// sortFindings orders findings totally: symbol, family, anchor site, other
// site, signatures, condition — every field that appears in the output, so
// equal fact sets render byte-identically.
func sortFindings(fs []Finding) {
	sort.SliceStable(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		switch {
		case a.Symbol != b.Symbol:
			return a.Symbol < b.Symbol
		case a.Family != b.Family:
			return a.Family < b.Family
		case a.File != b.File:
			return a.File < b.File
		case a.Line != b.Line:
			return a.Line < b.Line
		case a.Col != b.Col:
			return a.Col < b.Col
		case a.OtherFile != b.OtherFile:
			return a.OtherFile < b.OtherFile
		case a.OtherLine != b.OtherLine:
			return a.OtherLine < b.OtherLine
		case a.OtherCol != b.OtherCol:
			return a.OtherCol < b.OtherCol
		case a.SigA != b.SigA:
			return a.SigA < b.SigA
		case a.SigB != b.SigB:
			return a.SigB < b.SigB
		default:
			return a.CondStr < b.CondStr
		}
	})
}
