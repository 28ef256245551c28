// Command superc is the SuperC tool: a configuration-preserving C front
// end. It preprocesses and parses a compilation unit while preserving its
// static variability, and reports the AST, per-configuration projections,
// and instrumentation statistics.
//
// Given multiple files, units are processed on a worker pool (-j wide,
// GOMAXPROCS by default), each with its own tool and presence-condition
// space, with per-file output buffered and printed in argument order. With
// -check, each unit's file-scope definitions are checked for conflicts
// and coverage, and across units the linker's multidef findings between
// two different units print as cross-unit conflicts after every file's
// output. The C parse tables are loaded from the on-disk cache after the
// first run.
//
// Usage:
//
//	superc [flags] file.c [file2.c ...]
//
// Examples:
//
//	superc -I include drivers/mouse.c            # parse, print summary
//	superc -ast file.c                           # print the variability AST
//	superc -project 'CONFIG_SMP' file.c          # project one configuration
//	superc -single -D CONFIG_SMP=1 file.c        # gcc-like single-config mode
//	superc -mode sat file.c                      # TypeChef-style conditions
//	superc -opt mapr file.c                      # naive forking baseline
//	superc -j 8 drivers/*.c                      # parallel corpus sweep
//	superc -timeout 5s -budget-hoist 512 file.c  # governed run: degrade, don't hang
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/analysis"
	"repro/internal/cgrammar"
	"repro/internal/cli"
	"repro/internal/cond"
	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/guard"
	"repro/internal/harness"
	"repro/internal/link"
	"repro/internal/printer"
	"repro/internal/refactor"
	"repro/internal/stats"
)

func main() {
	var o cli.Options
	o.RegisterFlags(flag.CommandLine, cli.Config|cli.Opt|cli.Store, "when given multiple files", "file")
	single := flag.Bool("single", false, "single-configuration (gcc-like) mode")
	printAST := flag.Bool("ast", false, "print the configuration-preserving AST")
	project := flag.String("project", "", "comma-separated CONFIG vars to enable; prints that configuration's tokens")
	showStats := flag.Bool("stats", true, "print preprocessing and parsing statistics")
	check := flag.Bool("check", false, "run configuration-preserving analyses (conflicting definitions, coverage)")
	printSrc := flag.Bool("print", false, "print the preprocessed unit as conditional C source")
	rename := flag.String("rename", "", "configuration-preserving rename: OLD=NEW")
	daemonAddr := flag.String("daemon", "", "serve the batch from a superd daemon at this address (unix:PATH or HOST:PORT); summary mode only, falls back in-process")
	daemonOpts := daemon.FlagClientOptions(flag.CommandLine)
	limits := guard.FlagLimits(flag.CommandLine)
	flag.Parse()

	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: superc [flags] file.c [file2.c ...]")
		flag.Usage()
		os.Exit(2)
	}

	cfg, err := o.Config()
	if err != nil {
		fmt.Fprintln(os.Stderr, "superc:", err)
		os.Exit(2)
	}
	cfg.SingleConfig = *single
	if !*single {
		// Single-configuration mode evaluates conditionals concretely; the
		// preprocessor would ignore a header cache.
		if cfg.HeaderCache, err = o.HeaderCache(); err != nil {
			fmt.Fprintln(os.Stderr, "superc:", err)
			os.Exit(1)
		}
	}
	ff := fileFlags{
		printAST: *printAST, project: *project, showStats: *showStats,
		check: *check, printSrc: *printSrc, rename: *rename,
		limits: *limits,
	}
	files := flag.Args()

	if *daemonAddr != "" {
		if *printAST || *project != "" || *check || *printSrc || *rename != "" {
			fmt.Fprintln(os.Stderr, "superc: -daemon serves summaries only; -ast/-project/-check/-print/-rename run in-process")
		} else if exit, err := parseViaDaemon(*daemonAddr, *daemonOpts, daemon.ParseRequest{
			Files:        files,
			IncludePaths: cfg.IncludePaths,
			Defines:      cfg.Defines,
			Mode:         o.Mode,
			Opt:          o.Opt,
			Single:       *single,
			Jobs:         o.Jobs,
			ParseWorkers: cfg.ParseWorkers,
			Limits:       daemon.FromGuard(*limits),
		}, *showStats); err != nil {
			fmt.Fprintf(os.Stderr, "superc: %v; running in-process\n", err)
		} else {
			os.Exit(exit)
		}
	}

	// Each file gets its own tool (fresh condition space and macro table,
	// exactly like the evaluation harness), workers buffer their output,
	// and buffers are flushed in argument order so the output is the same
	// at any -j.
	type fileOut struct {
		stdout, stderr bytes.Buffer
		exit           int
		facts          *link.Facts
	}
	outs := make([]fileOut, len(files))
	harness.Parallel(o.Jobs, len(files), func(i int) {
		o := &outs[i]
		o.exit, o.facts = processFile(core.New(cfg), files[i], ff, &o.stdout, &o.stderr)
	})
	exit := 0
	var facts []*link.Facts
	for i := range outs {
		io.Copy(os.Stdout, &outs[i].stdout)
		io.Copy(os.Stderr, &outs[i].stderr)
		exit |= outs[i].exit
		if outs[i].facts != nil {
			facts = append(facts, outs[i].facts)
		}
	}
	if *check && len(files) > 1 {
		// Cross-unit conflicts: the same external symbol defined in two
		// units under overlapping conditions.
		for _, f := range link.Link(facts, nil).Findings {
			if f.Family == "multidef" && f.Unit != f.OtherUnit {
				fmt.Printf("cross-unit conflict: %s defined in %s and %s under %s\n",
					f.Symbol, f.OtherUnit, f.Unit, f.CondStr)
				exit = 1
			}
		}
	}
	os.Exit(exit)
}

// parseViaDaemon serves the batch from a superd daemon and renders each
// unit's summary exactly as processFile does — the wire carries the
// deterministic statistics and pre-rendered space-tied diagnostics. The
// "tables:" line reflects the daemon's parse-table cache (the client loads
// no tables in daemon mode).
func parseViaDaemon(addr string, opts daemon.ClientOptions, req daemon.ParseRequest, showStats bool) (int, error) {
	client, err := daemon.DialOptions(addr, opts)
	if err != nil {
		return 0, err
	}
	resp, err := client.Parse(&req)
	if err != nil {
		return 0, err
	}
	exit := 0
	for _, u := range resp.Units {
		if u.Err != "" {
			fmt.Fprintf(os.Stderr, "superc: %s\n", u.Err)
			exit = 1
			continue
		}
		for _, d := range u.PreDiags {
			fmt.Fprintln(os.Stderr, d)
			if !d.Warning {
				exit = 1
			}
		}
		for _, line := range u.ParseErrs {
			fmt.Fprintln(os.Stderr, line)
			exit = 1
		}
		if u.Killed {
			fmt.Fprintln(os.Stderr, "superc: subparser kill switch tripped")
			exit = 1
		}
		if u.BudgetErr != "" {
			fmt.Fprintf(os.Stderr, "superc: %s: degraded to partial result: %s\n", u.File, u.BudgetErr)
			exit = 1
		}
		if showStats {
			us := u.Pre
			fmt.Printf("preprocess: %d bytes, %d tokens, %d directives, %d defines, %d invocations (%d nested, %d trimmed, %d hoisted), %d includes, %d conditionals (depth %d)\n",
				us.Bytes, us.Tokens, us.Directives, us.MacroDefinitions,
				us.Invocations, us.NestedInvocations, us.TrimmedInvocations, us.HoistedInvocations,
				us.Includes, us.Conditionals, us.MaxCondDepth)
			if u.HasAST {
				p := u.Parse
				fmt.Printf("parse: %d iterations, max %d subparsers (p99 %d), %d forks, %d merges, %d typedef forks; AST: %d nodes, %d choice nodes\n",
					p.Iterations, p.MaxSubparsers, p.P99, p.Forks, p.Merges, p.TypedefForks,
					p.ASTNodes, p.ChoiceNodes)
			}
			fmt.Printf("tables: cache %s\n", resp.TableCache)
		}
		if !u.HasAST {
			fmt.Fprintln(os.Stderr, "superc: no configuration parsed successfully")
			exit = 1
		}
	}
	return exit, nil
}

// fileFlags carries the per-file output options.
type fileFlags struct {
	printAST  bool
	project   string
	showStats bool
	check     bool
	printSrc  bool
	rename    string
	limits    guard.Limits // per-unit resource budget (-timeout, -budget-*)
}

// processFile parses one file with its own tool and writes its output;
// with -check it also returns the unit's link facts.
func processFile(tool *core.Tool, file string, ff fileFlags, stdout, stderr io.Writer) (int, *link.Facts) {
	if !ff.limits.Zero() {
		tool.SetBudget(guard.New(context.Background(), ff.limits))
	}
	res, err := tool.ParseFile(file)
	if err != nil {
		fmt.Fprintf(stderr, "superc: %v\n", err)
		return 1, nil
	}
	printAST, project, showStats, check := ff.printAST, ff.project, ff.showStats, ff.check

	exit := 0
	for _, d := range res.Unit.Diags {
		fmt.Fprintln(stderr, d)
		if !d.Warning {
			exit = 1
		}
	}
	for _, d := range res.Parse.Diags {
		fmt.Fprintf(stderr, "%s: parse error under %s: %s\n",
			d.Tok.Pos(), tool.Space().String(d.Cond), d.Msg)
		exit = 1
	}
	if res.Parse.Killed {
		fmt.Fprintln(stderr, "superc: subparser kill switch tripped")
		exit = 1
	}
	if d := tool.Budget().Trip(); d != nil {
		fmt.Fprintf(stderr, "superc: %s: degraded to partial result: %v\n", file, d)
		exit = 1
	}

	if res.AST != nil && printAST {
		fmt.Fprintln(stdout, res.AST.StringWithConds(tool.Space()))
	}
	if ff.printSrc {
		fmt.Fprint(stdout, printer.Forest(tool.Space(), res.Unit.EnsureSegments(), printer.Options{}))
	}
	if res.AST != nil && ff.rename != "" {
		parts := strings.SplitN(ff.rename, "=", 2)
		if len(parts) != 2 || parts[0] == "" || parts[1] == "" {
			fmt.Fprintln(stderr, "superc: -rename wants OLD=NEW")
			return 1, nil
		}
		if col := refactor.CheckCollisions(tool.Space(), res.AST, parts[0], parts[1]); len(col) > 0 {
			fmt.Fprintf(stderr, "superc: rename collides under %s\n", tool.Space().String(col[0].Cond))
			return 1, nil
		}
		renamed, rep := refactor.Rename(tool.Space(), res.AST, parts[0], parts[1])
		fmt.Fprintf(stderr, "superc: %s\n", rep)
		fmt.Fprint(stdout, printer.AST(tool.Space(), renamed, printer.Options{}))
	}
	if res.AST != nil && project != "" {
		assign := map[string]bool{}
		for _, v := range strings.Split(project, ",") {
			v = strings.TrimSpace(v)
			if v != "" {
				assign["(defined "+v+")"] = true
			}
		}
		proj := tool.Project(res, assign)
		var texts []string
		for _, tk := range proj.Tokens() {
			texts = append(texts, tk.Text)
		}
		fmt.Fprintln(stdout, strings.Join(texts, " "))
	}
	if showStats {
		u := res.Unit.Stats
		p := res.Parse.Stats
		fmt.Fprintf(stdout, "preprocess: %d bytes, %d tokens, %d directives, %d defines, %d invocations (%d nested, %d trimmed, %d hoisted), %d includes, %d conditionals (depth %d)\n",
			u.Bytes, u.Tokens, u.Directives, u.MacroDefinitions,
			u.Invocations, u.NestedInvocations, u.TrimmedInvocations, u.HoistedInvocations,
			u.Includes, u.Conditionals, u.MaxCondDepth)
		if res.AST != nil {
			fmt.Fprintf(stdout, "parse: %d iterations, max %d subparsers (p99 %d), %d forks, %d merges, %d typedef forks; AST: %d nodes, %d choice nodes\n",
				p.Iterations, p.MaxSubparsers, stats.Hist(p.SubparserHist).Percentile(0.99), p.Forks, p.Merges, p.TypedefForks,
				res.AST.Count(), res.AST.CountChoices())
		}
		fmt.Fprintf(stdout, "tables: cache %s\n", cgrammar.TableCacheState())
	}
	var facts *link.Facts
	if res.AST != nil && check {
		au := &analysis.Unit{File: file, Space: tool.Space(), AST: res.AST, PP: res.Unit}
		facts = analysis.ExtractLinkFacts(au)
		conflicts := analysis.ConflictingDefinitions(au)
		for _, c := range conflicts {
			fmt.Fprintf(stdout, "conflict: %s (%s) defined twice under %s\n",
				c.Name, c.A.Kind, tool.Space().String(c.Under))
			exit = 1
		}
		if len(conflicts) == 0 {
			fmt.Fprintf(stdout, "check: %s: no conflicting definitions\n", file)
		}
		if tool.Space().Mode() == cond.ModeBDD {
			for _, cov := range analysis.CoverageReport(au) {
				if cov.Fraction < 1 {
					fmt.Fprintf(stdout, "coverage: %s %s exists in %.1f%% of configurations\n",
						cov.Symbol.Kind, cov.Symbol.Name, 100*cov.Fraction)
				}
			}
		}
	}
	if res.AST == nil {
		fmt.Fprintln(stderr, "superc: no configuration parsed successfully")
		exit = 1
	}
	return exit, facts
}
