// Command clint is the variability-aware C linter: it preprocesses and
// parses each compilation unit configuration-preservingly, runs the
// analysis passes over the choice AST and the preprocessor's condition
// records, and reports every diagnostic with the presence condition under
// which it holds plus a concrete witness configuration (re-verified on the
// independent SAT representation).
//
// Units run through harness.RunUnits, the batch runner superd uses too
// (-j wide, GOMAXPROCS by default), and each unit's output — and with
// -link the corpus-wide join — is built by the same daemon.Lint as superd's
// /v1/lint and printed in argument order, so the output is byte-identical
// regardless of -j and via -daemon, where the batch is one request.
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
// verified witness configuration. Output stays byte-identical at any -j
// and via -daemon.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/passes"
	"repro/internal/cli"
	"repro/internal/daemon"
	"repro/internal/link"
)

func main() {
	var o cli.Options
	o.RegisterFlags(flag.CommandLine, cli.Config|cli.Store, "when given multiple files")
	format := flag.String("format", "text", "output format: text, json, or sarif")
	passNames := flag.String("passes", "", "comma-separated pass names (default: all)")
	listPasses := flag.Bool("list", false, "list the available passes and exit")
	doLink := flag.Bool("link", false, "join every unit's conditional link facts corpus-wide and report cross-unit undef-ref/multidef/type-mismatch findings")
	showStats := flag.Bool("stats", false, "print per-unit analysis statistics to stderr")
	daemonAddr := flag.String("daemon", "", "serve the batch from a superd daemon at this address (unix:PATH or HOST:PORT); falls back in-process if unreachable")
	daemonOpts := daemon.FlagClientOptions(flag.CommandLine)
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
	if *passNames == "" {
		cfg.Analyzers = passes.All()
	} else {
		names := strings.Split(*passNames, ",")
		cfg.Analyzers = passes.ByName(names)
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
	cfg.Link = *doLink

	if cfg.HeaderCache, err = o.HeaderCache(); err != nil {
		fmt.Fprintln(os.Stderr, "clint:", err)
		os.Exit(1)
	}

	files := flag.Args()
	var resp *daemon.LintResponse
	if *daemonAddr != "" {
		resp, err = lintViaDaemon(*daemonAddr, *daemonOpts, daemon.LintRequest{
			Files:        files,
			IncludePaths: cfg.IncludePaths,
			Defines:      cfg.Defines,
			Mode:         o.Mode,
			Passes:       splitPasses(*passNames),
			Jobs:         o.Jobs,
			Limits:       daemon.FromGuard(cfg.Budget),
			Link:         *doLink,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "clint: %v; running in-process\n", err)
		}
	}
	if resp == nil {
		// The same lint path superd runs: each file gets its own tool, and
		// with -link one parse yields both its analysis and its link facts,
		// joined after every unit finishes, in argument order.
		resp, _, _ = daemon.Lint(context.Background(), nil, files, cfg)
	}

	// Units arrive in argument order, from the daemon or in-process alike;
	// each becomes the file's result and stderr text.
	results := make([]*analysis.Result, len(files))
	exit := 0
	for i, u := range resp.Units {
		if u.Errors != "" {
			fmt.Fprint(os.Stderr, u.Errors)
			exit = 1
		}
		if u.Failed {
			continue
		}
		r := &analysis.Result{File: u.File, Stats: u.Stats}
		for _, d := range u.Diags {
			r.Diags = append(r.Diags, d.ToAnalysis())
		}
		results[i] = r
	}
	var linkStats string
	if l := resp.Link; l != nil {
		// Rebuilt as link.Findings, the wire findings merge exactly like an
		// in-process join's.
		findings := make([]link.Finding, len(l.Findings))
		for i, f := range l.Findings {
			findings[i] = f.ToLink()
		}
		mergeLinkDiags(results, files, findings)
		linkStats = fmt.Sprintf("%d units, %d symbols, %d facts, %d findings", l.Units, l.Symbols, l.Facts, len(l.Findings))
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

// lintViaDaemon serves the batch from a superd daemon, which builds each
// unit, and with -link the corpus-wide join, with the same daemon.Lint an
// in-process run uses.
func lintViaDaemon(addr string, opts daemon.ClientOptions, req daemon.LintRequest) (*daemon.LintResponse, error) {
	client, err := daemon.DialOptions(addr, opts)
	if err != nil {
		return nil, err
	}
	return client.Lint(&req)
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
