package harness

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/passes"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/fmlr"
)

// renderAnalysis flattens a run's analysis output into one string covering
// every field that reaches the user: position, pass, message, condition,
// witness, verification flag.
func renderAnalysis(results []UnitResult) string {
	var b strings.Builder
	for _, r := range results {
		if r.Analysis == nil {
			continue
		}
		for _, d := range r.Analysis.Diags {
			fmt.Fprintf(&b, "%s:%d:%d %s %s [%s] %v verified=%v\n",
				d.File, d.Line, d.Col, d.Pass, d.Msg, d.CondStr, d.Witness, d.WitnessVerified)
		}
		s := r.Analysis.Stats
		fmt.Fprintf(&b, "%s stats %d %d %d %d %d %d\n", r.File,
			s.PassesRun, s.Diagnostics, s.WitnessChecks, s.WitnessFailures,
			s.InfeasibleDropped, s.ErrorRegions)
	}
	return b.String()
}

// TestAnalysisOutputStableAcrossJobs is the -j golden test: the rendered
// diagnostics of a sequential run and a wide parallel run must be
// byte-identical — ordering is a function of the corpus, not of scheduling.
func TestAnalysisOutputStableAcrossJobs(t *testing.T) {
	c := corpus.Generate(corpus.Params{Seed: 3, CFiles: 10, GenHeaders: 10})
	cfg := RunConfig{Parser: fmlr.OptAll, Analyzers: passes.All()}

	cfg.Jobs = 1
	sequential := renderAnalysis(Run(c, cfg))
	if sequential == "" {
		t.Fatal("no analysis output at -j 1")
	}
	for _, jobs := range []int{2, 8} {
		cfg.Jobs = jobs
		parallel := renderAnalysis(Run(c, cfg))
		if parallel != sequential {
			t.Errorf("analysis output differs between -j 1 and -j %d:\n--- j1 ---\n%s\n--- j%d ---\n%s",
				jobs, sequential, jobs, parallel)
		}
	}
}

// withGiantUnit adds giant.c to c: a generated unit of about 4k tokens,
// above the parser's size gate, so a run with more than one parse worker
// parses it region-parallel.
func withGiantUnit(c *corpus.Corpus) *corpus.Corpus {
	c.FS["giant.c"] = corpus.GiantUnit(1, 200)
	c.CFiles = append(c.CFiles, "giant.c")
	return c
}

// checkParallel requires that giant.c, the last unit, parsed in regions
// exactly when the run had more than one parse worker.
func checkParallel(t *testing.T, results []UnitResult, pw int) {
	t.Helper()
	if r := results[len(results)-1]; (r.Regions > 0) != (pw > 1) {
		t.Errorf("%s parsed as %d regions with %d parse workers", r.File, r.Regions, pw)
	}
}

// TestOutputStableAcrossParseWorkers is the parse-worker golden test: the
// rendered Table 3 and analysis output must be byte-identical whether units
// parse sequentially or region-parallel, at any worker-pool width — the two
// parallelism axes compose without touching observable output. giant.c is
// large enough that the region-parallel path engages on it.
func TestOutputStableAcrossParseWorkers(t *testing.T) {
	c := withGiantUnit(corpus.Generate(corpus.Params{Seed: 5, CFiles: 8, GenHeaders: 10, BlocksPerFile: 60}))
	render := func(jobs, pw int) string {
		cfg := RunConfig{Parser: fmlr.OptAll, Analyzers: passes.All(), Jobs: jobs}
		cfg.Parser.ParseWorkers = pw
		results := Run(c, cfg)
		checkParallel(t, results, pw)
		return Table3(results) + "\n" + renderAnalysis(results)
	}
	want := render(1, 1)
	if want == "\n" {
		t.Fatal("no output at jobs=1 parse workers=1")
	}
	for _, jobs := range []int{1, 8} {
		for _, pw := range []int{1, 4} {
			if jobs == 1 && pw == 1 {
				continue
			}
			if got := render(jobs, pw); got != want {
				t.Errorf("output differs between jobs=1 parse workers=1 and jobs=%d parse workers=%d:\n--- want ---\n%s\n--- got ---\n%s",
					jobs, pw, want, got)
			}
		}
	}
}

// TestCoverageReportStableOrdering: the coverage report's sort is a total
// order, so repeated builds over the same units render identically even
// when map iteration varies underneath.
func TestCoverageReportStableOrdering(t *testing.T) {
	c := corpus.Generate(corpus.Params{Seed: 3, CFiles: 6, GenHeaders: 8})
	render := func() string {
		tool := core.New(core.Config{FS: c.FS, IncludePaths: IncludePaths})
		var b strings.Builder
		for _, cf := range c.CFiles {
			res, err := tool.ParseFile(cf)
			if err != nil || res.AST == nil {
				t.Fatalf("%s: %v", cf, err)
			}
			u := &analysis.Unit{File: cf, Space: tool.Space(), AST: res.AST, PP: res.Unit}
			for _, e := range analysis.CoverageReport(u) {
				fmt.Fprintf(&b, "%s %s:%d:%d %.4f\n", e.Symbol.Name, e.Symbol.File,
					e.Symbol.Line, e.Symbol.Col, e.Fraction)
			}
		}
		return b.String()
	}
	first := render()
	if first == "" {
		t.Fatal("empty coverage report")
	}
	for i := 0; i < 3; i++ {
		if again := render(); again != first {
			t.Fatalf("coverage report ordering unstable:\n%s\nvs\n%s", first, again)
		}
	}
}

// renderLink flattens a corpus link run into one string covering every
// field the linker surfaces to the user.
func renderLink(m Metrics) string {
	if m.LinkResult == nil {
		return ""
	}
	var b strings.Builder
	for _, f := range m.LinkResult.Findings {
		fmt.Fprintf(&b, "%s %s %s:%d:%d other=%s:%d:%d sigs=%q/%q [%s] %v verified=%v\n",
			f.Pass(), f.Symbol, f.File, f.Line, f.Col,
			f.OtherFile, f.OtherLine, f.OtherCol,
			f.SigA, f.SigB, f.CondStr, f.Witness, f.WitnessVerified)
	}
	s := m.LinkResult.Stats
	fmt.Fprintf(&b, "stats %d %d %d %d %d %d\n",
		s.Units, s.Symbols, s.Facts, s.Findings, s.WitnessChecks, s.WitnessFailures)
	return b.String()
}

// TestLinkOutputStableAcrossWorkers is the linker's scheduling golden: the
// corpus-wide findings must be byte-identical at any jobs and parse-worker
// combination — the join is a pure function of the fact set, and fact
// extraction is per-unit. giant.c is the unit the parse workers split.
func TestLinkOutputStableAcrossWorkers(t *testing.T) {
	c := withGiantUnit(corpus.Generate(corpus.Params{Seed: 7, CFiles: 8, GenHeaders: 8}))
	base := RunConfig{Parser: fmlr.OptAll, Link: true, Jobs: 1}
	_, m := RunMetered(context.Background(), c, base)
	sequential := renderLink(m)
	if m.LinkResult == nil || m.LinkResult.Stats.Units == 0 {
		t.Fatal("link run joined no units")
	}
	for _, w := range []struct{ jobs, pw int }{{2, 0}, {8, 0}, {1, 4}, {8, 4}} {
		cfg := base
		cfg.Jobs, cfg.Parser.ParseWorkers = w.jobs, w.pw
		results, mw := RunMetered(context.Background(), c, cfg)
		checkParallel(t, results, w.pw)
		if got := renderLink(mw); got != sequential {
			t.Errorf("link output differs at jobs=%d parse workers=%d:\n--- base ---\n%s\n--- got ---\n%s",
				w.jobs, w.pw, sequential, got)
		}
	}
}
