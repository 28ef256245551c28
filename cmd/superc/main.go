// Command superc is the SuperC tool: a configuration-preserving C front
// end. It preprocesses and parses a compilation unit while preserving its
// static variability, and reports the AST, per-configuration projections,
// and instrumentation statistics.
//
// Units run through harness.RunUnits, the batch runner superd uses too (-j
// wide, GOMAXPROCS by default), each with its own tool and presence-condition
// space; a unit that panics fails alone. Each unit's summary is built by the
// same daemon.Parse as superd's /v1/parse and printed in argument order by
// one renderer, so the output is byte-identical at any -j and via -daemon.
// With -check, each unit's file-scope definitions are checked for conflicts
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
	"repro/internal/harness"
	"repro/internal/link"
	"repro/internal/printer"
	"repro/internal/refactor"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is superc over the command-line arguments args (without the program
// name): it writes the output to stdout and stderr and returns the exit
// status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o cli.Options
	o.RegisterFlags(fs, cli.Config|cli.Opt|cli.Store, "when given multiple files", "file")
	single := fs.Bool("single", false, "single-configuration (gcc-like) mode")
	printAST := fs.Bool("ast", false, "print the configuration-preserving AST")
	project := fs.String("project", "", "comma-separated CONFIG vars to enable; prints that configuration's tokens")
	showStats := fs.Bool("stats", true, "print preprocessing and parsing statistics")
	check := fs.Bool("check", false, "run configuration-preserving analyses (conflicting definitions, coverage)")
	printSrc := fs.Bool("print", false, "print the preprocessed unit as conditional C source")
	rename := fs.String("rename", "", "configuration-preserving rename: OLD=NEW")
	daemonAddr := fs.String("daemon", "", "serve the batch from a superd daemon at this address (unix:PATH or HOST:PORT); summary mode only, falls back in-process")
	daemonOpts := daemon.FlagClientOptions(fs)
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}

	if fs.NArg() < 1 {
		fmt.Fprintln(stderr, "usage: superc [flags] file.c [file2.c ...]")
		fs.Usage()
		return 2
	}

	cfg, err := o.Config()
	if err != nil {
		fmt.Fprintln(stderr, "superc:", err)
		return 2
	}
	cfg.Single = *single
	if !*single {
		// Single-configuration mode evaluates conditionals concretely; the
		// preprocessor would ignore a header cache.
		if cfg.HeaderCache, err = o.HeaderCache(); err != nil {
			fmt.Fprintln(stderr, "superc:", err)
			return 1
		}
	}
	ff := fileFlags{
		printAST: *printAST, project: *project, check: *check,
		printSrc: *printSrc, rename: *rename,
	}
	files := fs.Args()

	var resp *daemon.ParseResponse
	if *daemonAddr != "" {
		if *printAST || *project != "" || *check || *printSrc || *rename != "" {
			fmt.Fprintln(stderr, "superc: -daemon serves summaries only; -ast/-project/-check/-print/-rename run in-process")
		} else if resp, err = parseViaDaemon(*daemonAddr, *daemonOpts, stderr, daemon.ParseRequest{
			Files:        files,
			IncludePaths: cfg.IncludePaths,
			Defines:      cfg.Defines,
			Mode:         o.Mode,
			Opt:          o.Opt,
			Single:       *single,
			Jobs:         o.Jobs,
			ParseWorkers: cfg.ParseWorkers,
			Limits:       daemon.FromGuard(cfg.Budget),
		}); err != nil {
			fmt.Fprintf(stderr, "superc: %v; running in-process\n", err)
		}
	}
	xs := make([]extras, len(files)) // empty when the daemon served the batch
	if resp == nil {
		// The same parse path superd runs; the per-file extras render from
		// the live tool into per-unit buffers.
		resp = &daemon.ParseResponse{}
		resp.Units, _ = daemon.Parse(context.Background(), nil, files, cfg, func(i int, tool *core.Tool, res *core.Result, r *harness.UnitResult) {
			xs[i].run(tool, res, r.File, ff)
		})
		resp.TableCache = cgrammar.TableCacheState()
	}
	// Units arrive in argument order, from the daemon or in-process alike.
	// The "tables:" line reports the parse-table cache of the process that
	// parsed (the client loads no tables in daemon mode).
	exit := 0
	for i := range resp.Units {
		exit |= render(stdout, stderr, &resp.Units[i], resp.TableCache, *showStats, &xs[i])
	}
	if *check && len(files) > 1 {
		// Cross-unit conflicts: the same external symbol defined in two
		// units under overlapping conditions. A unit that panicked after
		// its extraction joins nothing.
		var facts []*link.Facts
		for i := range xs {
			if xs[i].facts != nil && resp.Units[i].Err == "" {
				facts = append(facts, xs[i].facts)
			}
		}
		for _, f := range link.Link(facts, nil).Findings {
			if f.Family == "multidef" && f.Unit != f.OtherUnit {
				fmt.Fprintf(stdout, "cross-unit conflict: %s defined in %s and %s under %s\n",
					f.Symbol, f.OtherUnit, f.Unit, f.CondStr)
				exit = 1
			}
		}
	}
	return exit
}

// parseViaDaemon serves the batch from a superd daemon, which builds each
// unit with the same daemon.Parse an in-process run uses.
func parseViaDaemon(addr string, opts daemon.ClientOptions, warn io.Writer, req daemon.ParseRequest) (*daemon.ParseResponse, error) {
	opts.Warn = warn
	client, err := daemon.DialOptions(addr, opts)
	if err != nil {
		return nil, err
	}
	return client.Parse(&req)
}

// render prints one unit — its diagnostics to stderr, its summary to
// stdout, with x's extras in between — and returns its exit status. tables
// is the parse-table cache state the summary reports.
func render(stdout, stderr io.Writer, u *daemon.ParseUnit, tables string, showStats bool, x *extras) int {
	if u.Err != "" {
		fmt.Fprintf(stderr, "superc: %s\n", u.Err)
		return 1
	}
	exit := 0
	for _, d := range u.PreDiags {
		fmt.Fprintln(stderr, d)
		if !d.Warning {
			exit = 1
		}
	}
	for _, line := range u.ParseErrs {
		fmt.Fprintln(stderr, line)
		exit = 1
	}
	if u.Killed {
		fmt.Fprintln(stderr, "superc: subparser kill switch tripped")
		exit = 1
	}
	if u.BudgetErr != "" {
		fmt.Fprintf(stderr, "superc: %s: degraded to partial result: %s\n", u.File, u.BudgetErr)
		exit = 1
	}
	io.Copy(stdout, &x.out)
	io.Copy(stderr, &x.errs)
	exit |= x.exit
	if x.halt {
		return exit
	}
	if showStats {
		us := u.Pre
		fmt.Fprintf(stdout, "preprocess: %d bytes, %d tokens, %d directives, %d defines, %d invocations (%d nested, %d trimmed, %d hoisted), %d includes, %d conditionals (depth %d)\n",
			us.Bytes, us.Tokens, us.Directives, us.MacroDefinitions,
			us.Invocations, us.NestedInvocations, us.TrimmedInvocations, us.HoistedInvocations,
			us.Includes, us.Conditionals, us.MaxCondDepth)
		if u.HasAST {
			p := u.Parse
			fmt.Fprintf(stdout, "parse: %d iterations, max %d subparsers (p99 %d), %d forks, %d merges, %d typedef forks; AST: %d nodes, %d choice nodes\n",
				p.Iterations, p.MaxSubparsers, p.P99, p.Forks, p.Merges, p.TypedefForks,
				p.ASTNodes, p.ChoiceNodes)
		}
		fmt.Fprintf(stdout, "tables: cache %s\n", tables)
	}
	io.Copy(stdout, &x.check)
	if !u.HasAST {
		fmt.Fprintln(stderr, "superc: no configuration parsed successfully")
		exit = 1
	}
	return exit
}

// fileFlags carries the per-file output options.
type fileFlags struct {
	printAST bool
	project  string
	check    bool
	printSrc bool
	rename   string
}

// extras is one unit's in-process output beyond its summary, rendered while
// the unit's tool is live.
type extras struct {
	out   bytes.Buffer // -ast, -print, -rename and -project: before the summary
	errs  bytes.Buffer // -rename's report: after the unit's diagnostics
	check bytes.Buffer // -check: after the summary
	exit  int
	halt  bool        // -rename refused: the summary and -check are skipped
	facts *link.Facts // -check: the unit's link facts, for cross-unit conflicts
}

func (x *extras) run(tool *core.Tool, res *core.Result, file string, ff fileFlags) {
	sp := tool.Space()
	if res.AST != nil && ff.printAST {
		fmt.Fprintln(&x.out, res.AST.StringWithConds(sp))
	}
	if ff.printSrc {
		fmt.Fprint(&x.out, printer.Forest(sp, res.Unit.EnsureSegments(), printer.Options{}))
	}
	if res.AST == nil {
		return
	}
	if ff.rename != "" {
		from, to, ok := strings.Cut(ff.rename, "=")
		if !ok || from == "" || to == "" {
			fmt.Fprintln(&x.errs, "superc: -rename wants OLD=NEW")
			x.exit, x.halt = 1, true
			return
		}
		if col := refactor.CheckCollisions(sp, res.AST, from, to); len(col) > 0 {
			fmt.Fprintf(&x.errs, "superc: rename collides under %s\n", sp.String(col[0].Cond))
			x.exit, x.halt = 1, true
			return
		}
		renamed, rep := refactor.Rename(sp, res.AST, from, to)
		fmt.Fprintf(&x.errs, "superc: %s\n", rep)
		fmt.Fprint(&x.out, printer.AST(sp, renamed, printer.Options{}))
	}
	if ff.project != "" {
		assign := map[string]bool{}
		for _, v := range strings.Split(ff.project, ",") {
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
		fmt.Fprintln(&x.out, strings.Join(texts, " "))
	}
	if ff.check {
		// One analysis.Unit, so the facts and both checks share one
		// resolution of the AST.
		au := &analysis.Unit{File: file, Space: sp, AST: res.AST, PP: res.Unit}
		x.facts = analysis.ExtractLinkFacts(au)
		conflicts := analysis.ConflictingDefinitions(au)
		for _, c := range conflicts {
			fmt.Fprintf(&x.check, "conflict: %s (%s) defined twice under %s\n",
				c.Name, c.A.Kind, sp.String(c.Under))
			x.exit = 1
		}
		if len(conflicts) == 0 {
			fmt.Fprintf(&x.check, "check: %s: no conflicting definitions\n", file)
		}
		if sp.Mode() == cond.ModeBDD {
			for _, cov := range analysis.CoverageReport(au) {
				if cov.Fraction < 1 {
					fmt.Fprintf(&x.check, "coverage: %s %s exists in %.1f%% of configurations\n",
						cov.Symbol.Kind, cov.Symbol.Name, 100*cov.Fraction)
				}
			}
		}
	}
}
