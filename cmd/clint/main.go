// Command clint is the variability-aware C linter: it preprocesses and
// parses each compilation unit configuration-preservingly, runs the
// analysis passes over the choice AST and the preprocessor's condition
// records, and reports every diagnostic with the presence condition under
// which it holds plus a concrete witness configuration (re-verified on the
// independent SAT representation).
//
// Units are processed on a worker pool (-j wide, GOMAXPROCS by default)
// with per-file output buffered and flushed in argument order, so the
// output is byte-identical regardless of -j.
//
// Usage:
//
//	clint [flags] file.c [file2.c ...]
//
// Examples:
//
//	clint -I include drivers/mouse.c        # text diagnostics
//	clint -format json file.c               # machine-readable output
//	clint -format sarif file.c              # SARIF 2.1.0 for code-scanning UIs
//	clint -passes deadbranch,errreach f.c   # run a subset of passes
//	clint -link a.c b.c                     # whole-corpus link analysis
//
// With -link, every unit's conditional link facts (definitions, tentative
// definitions, extern declarations, references) are joined corpus-wide and
// the cross-unit diagnostic families — undef-ref, multidef, type-mismatch —
// are reported alongside the per-unit passes, each SAT-gated with a
// verified witness configuration. Output stays byte-identical at any -j,
// any -parse-workers, and via -daemon.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"

	"repro/internal/analysis"
	"repro/internal/analysis/passes"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/guard"
	"repro/internal/link"
)

func main() {
	var o cli.Options
	o.RegisterFlags(flag.CommandLine, cli.Config|cli.Store, "when given multiple files", "file")
	format := flag.String("format", "text", "output format: text, json, or sarif")
	passNames := flag.String("passes", "", "comma-separated pass names (default: all)")
	listPasses := flag.Bool("list", false, "list the available passes and exit")
	doLink := flag.Bool("link", false, "join every unit's conditional link facts corpus-wide and report cross-unit undef-ref/multidef/type-mismatch findings")
	showStats := flag.Bool("stats", false, "print per-unit analysis statistics to stderr")
	daemonAddr := flag.String("daemon", "", "serve the batch from a superd daemon at this address (unix:PATH or HOST:PORT); falls back in-process if unreachable")
	daemonOpts := daemon.FlagClientOptions(flag.CommandLine)
	limits := guard.FlagLimits(flag.CommandLine)
	flag.Parse()

	if *listPasses {
		for _, a := range passes.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: clint [flags] file.c [file2.c ...]")
		flag.Usage()
		os.Exit(2)
	}

	cfg, err := o.Config()
	if err != nil {
		fmt.Fprintln(os.Stderr, "clint:", err)
		os.Exit(2)
	}
	switch *format {
	case "text", "json", "sarif":
	default:
		fmt.Fprintf(os.Stderr, "clint: unknown -format %q\n", *format)
		os.Exit(2)
	}
	var selected []*analysis.Analyzer
	if *passNames == "" {
		selected = passes.All()
	} else {
		names := strings.Split(*passNames, ",")
		selected = passes.ByName(names)
		known := make(map[string]bool)
		for _, a := range passes.All() {
			known[a.Name] = true
		}
		for _, n := range names {
			if !known[strings.TrimSpace(n)] {
				fmt.Fprintf(os.Stderr, "clint: unknown pass %q (see -list)\n", n)
				os.Exit(2)
			}
		}
	}

	if cfg.HeaderCache, err = o.HeaderCache(); err != nil {
		fmt.Fprintln(os.Stderr, "clint:", err)
		os.Exit(1)
	}

	files := flag.Args()
	results := make([]*analysis.Result, len(files))
	facts := make([]*link.Facts, len(files))
	errOuts := make([]bytes.Buffer, len(files))
	var linkStats string

	served := false
	if *daemonAddr != "" {
		err := lintViaDaemon(*daemonAddr, *daemonOpts, daemon.LintRequest{
			Files:        files,
			IncludePaths: cfg.IncludePaths,
			Defines:      cfg.Defines,
			Mode:         o.Mode,
			Passes:       splitPasses(*passNames),
			Jobs:         o.Jobs,
			ParseWorkers: cfg.ParseWorkers,
			Limits:       daemon.FromGuard(*limits),
		}, results, errOuts)
		if err == nil && *doLink {
			linkStats, err = linkViaDaemon(*daemonAddr, *daemonOpts, daemon.LinkRequest{
				Files:        files,
				IncludePaths: cfg.IncludePaths,
				Defines:      cfg.Defines,
				Mode:         o.Mode,
				Jobs:         o.Jobs,
				ParseWorkers: cfg.ParseWorkers,
				Limits:       daemon.FromGuard(*limits),
			}, results)
			if err != nil {
				// Start over in-process: partial daemon output would
				// double-report the per-unit diagnostics.
				results = make([]*analysis.Result, len(files))
				errOuts = make([]bytes.Buffer, len(files))
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "clint: %v; running in-process\n", err)
		} else {
			served = true
		}
	}
	if !served {
		nWorkers := cli.Workers(o.Jobs, len(files))

		// Each file gets its own tool — a fresh condition space and macro
		// table — so units are independent and any worker can take any file.
		// Results are indexed by argument position: the output is a pure
		// function of the inputs, not of scheduling.
		work := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < nWorkers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range work {
					results[i], facts[i] = lintFile(cfg, files[i], selected, *limits, *doLink, &errOuts[i])
				}
			}()
		}
		for i := range files {
			work <- i
		}
		close(work)
		wg.Wait()

		if *doLink {
			// The corpus-wide join runs after the pool drains, over facts in
			// argument order: the findings are a pure function of the inputs
			// at any -j / -parse-workers.
			joined := make([]*link.Facts, 0, len(facts))
			for _, f := range facts {
				if f != nil {
					joined = append(joined, f)
				}
			}
			lr := link.Link(joined, cfg.HeaderCache.Canon())
			mergeLinkDiags(results, files, lr.Findings)
			linkStats = fmt.Sprintf("%d units, %d symbols, %d facts, %d findings",
				lr.Stats.Units, lr.Stats.Symbols, lr.Stats.Facts, lr.Stats.Findings)
		}
	}

	exit := 0
	for i := range errOuts {
		if errOuts[i].Len() > 0 {
			io.Copy(os.Stderr, &errOuts[i])
			exit = 1
		}
	}
	total := 0
	for _, r := range results {
		if r != nil {
			total += len(r.Diags)
		}
	}

	switch *format {
	case "json":
		if err := analysis.WriteJSON(os.Stdout, compact(results)); err != nil {
			fmt.Fprintf(os.Stderr, "clint: %v\n", err)
			exit = 1
		}
	case "sarif":
		if err := analysis.WriteSARIF(os.Stdout, "clint", compact(results)); err != nil {
			fmt.Fprintf(os.Stderr, "clint: %v\n", err)
			exit = 1
		}
	default:
		for _, r := range results {
			if r == nil {
				continue
			}
			for _, d := range r.Diags {
				fmt.Println(renderText(d))
			}
		}
	}
	if *showStats {
		for _, r := range results {
			if r == nil {
				continue
			}
			s := r.Stats
			fmt.Fprintf(os.Stderr, "clint: %s: %d passes, %d diagnostics (%s); %d witness checks, %d failed, %d infeasible dropped, %d error regions skipped\n",
				r.File, s.PassesRun, s.Diagnostics, byPassSummary(s.ByPass),
				s.WitnessChecks, s.WitnessFailures, s.InfeasibleDropped, s.ErrorRegions)
		}
		if linkStats != "" {
			fmt.Fprintf(os.Stderr, "clint: link: %s\n", linkStats)
		}
	}
	if total > 0 {
		exit = 1
	}
	os.Exit(exit)
}

// splitPasses converts the -passes flag to wire form (nil = server default,
// which is every pass, matching the in-process default).
func splitPasses(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

// lintViaDaemon serves the batch from a superd daemon. The daemon returns
// structured diagnostics and the same error text lintFile would produce, so
// the reassembled results render byte-identically to an in-process run.
func lintViaDaemon(addr string, opts daemon.ClientOptions, req daemon.LintRequest, results []*analysis.Result, errOuts []bytes.Buffer) error {
	client, err := daemon.DialOptions(addr, opts)
	if err != nil {
		return err
	}
	resp, err := client.Lint(&req)
	if err != nil {
		return err
	}
	for i, u := range resp.Units {
		errOuts[i].WriteString(u.Errors)
		if u.Failed {
			continue // results[i] stays nil, as lintFile returns on failure
		}
		r := &analysis.Result{File: u.File, Stats: u.Stats}
		for _, d := range u.Diags {
			r.Diags = append(r.Diags, d.ToAnalysis())
		}
		results[i] = r
	}
	return nil
}

// linkViaDaemon serves the corpus-wide link join from a superd daemon. The
// daemon extracts (or replays store-cached) per-unit facts, joins them in
// one space, and returns the findings as framework diagnostics in total
// order — built through the same link.Finding renderer as the in-process
// path, so the merged output is byte-identical.
func linkViaDaemon(addr string, opts daemon.ClientOptions, req daemon.LinkRequest, results []*analysis.Result) (string, error) {
	client, err := daemon.DialOptions(addr, opts)
	if err != nil {
		return "", err
	}
	resp, err := client.Link(&req)
	if err != nil {
		return "", err
	}
	findings := make([]link.Finding, len(resp.Findings))
	for i, f := range resp.Findings {
		findings[i] = f.ToLink()
	}
	mergeLinkDiags(results, req.Files, findings)
	stats := fmt.Sprintf("%d units, %d symbols, %d facts, %d findings",
		resp.Units, resp.Symbols, resp.Facts, len(resp.Findings))
	return stats, nil
}

// lintFile parses and analyzes one unit; a nil result is returned only when
// the unit could not be processed at all (the error is on w). With doLink
// the same parse also yields the unit's conditional link facts.
func lintFile(cfg core.Config, file string, analyzers []*analysis.Analyzer, limits guard.Limits, doLink bool, w io.Writer) (*analysis.Result, *link.Facts) {
	tool := core.New(cfg)
	if !limits.Zero() {
		tool.SetBudget(guard.New(context.Background(), limits))
	}
	res, err := tool.ParseFile(file)
	if err != nil {
		fmt.Fprintf(w, "clint: %s: %v\n", file, err)
		return nil, nil
	}
	for _, d := range res.Unit.Diags {
		if !d.Warning {
			fmt.Fprintf(w, "clint: %s\n", d)
		}
	}
	unit := &analysis.Unit{
		File:   file,
		Space:  tool.Space(),
		AST:    res.AST,
		PP:     res.Unit,
		Budget: tool.Budget(),
	}
	var facts *link.Facts
	if doLink {
		facts = analysis.ExtractLinkFacts(unit)
	}
	return analysis.Run(unit, analyzers), facts
}

// mergeLinkDiags folds corpus-level findings into the per-file results:
// each finding anchors at a fact site of one input unit, so it lands in
// that file's result (created if the per-unit passes had nothing) and the
// file's diagnostics are re-sorted into the framework's total order.
func mergeLinkDiags(results []*analysis.Result, files []string, findings []link.Finding) {
	idx := make(map[string]int, len(files))
	for i, f := range files {
		idx[f] = i
	}
	touched := make(map[int]bool)
	for _, f := range findings {
		i, ok := idx[f.Unit]
		if !ok {
			continue // defensive: facts only come from argument units
		}
		if results[i] == nil {
			results[i] = &analysis.Result{File: f.Unit, Stats: analysis.Stats{ByPass: map[string]int{}}}
		}
		results[i].Diags = append(results[i].Diags, analysis.LinkDiagnostic(f))
		results[i].Stats.Diagnostics++
		if results[i].Stats.ByPass == nil {
			results[i].Stats.ByPass = map[string]int{}
		}
		results[i].Stats.ByPass[f.Pass()]++
		touched[i] = true
	}
	for i := range touched {
		results[i].Diags = analysis.SortDiags(results[i].Diags)
	}
}

// renderText renders one diagnostic for humans: the anchor and message on
// the first line, then the presence condition and the concrete witness
// configuration indented beneath it.
func renderText(d analysis.Diagnostic) string {
	pos := d.File
	if d.Line > 0 {
		pos = fmt.Sprintf("%s:%d:%d", d.File, d.Line, d.Col)
	}
	verified := "verified"
	if !d.WitnessVerified {
		verified = "UNVERIFIED"
	}
	return fmt.Sprintf("%s: [%s] %s\n    when: %s\n    witness: %s (%s)",
		pos, d.Pass, d.Msg, d.CondStr, witnessText(d.Witness), verified)
}

func witnessText(w map[string]bool) string {
	if len(w) == 0 {
		return "any"
	}
	names := make([]string, 0, len(w))
	for n := range w {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, n := range names {
		v := "0"
		if w[n] {
			v = "1"
		}
		parts[i] = n + "=" + v
	}
	return strings.Join(parts, " ")
}

func byPassSummary(byPass map[string]int) string {
	if len(byPass) == 0 {
		return "none"
	}
	names := make([]string, 0, len(byPass))
	for n := range byPass {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = fmt.Sprintf("%s %d", n, byPass[n])
	}
	return strings.Join(parts, ", ")
}

// compact drops nil results (failed units) keeping order.
func compact(results []*analysis.Result) []*analysis.Result {
	out := make([]*analysis.Result, 0, len(results))
	for _, r := range results {
		if r != nil {
			out = append(out, r)
		}
	}
	return out
}
