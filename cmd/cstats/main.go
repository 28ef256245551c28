// Command cstats reproduces the paper's preprocessor-usage measurements
// (Tables 2a, 2b, and 3 of §6.1) over the synthetic corpus. Table 3's
// instrumented sweep runs on the parallel harness (-j workers); the C
// parse tables come from the on-disk cache after the first run.
//
// Usage:
//
//	cstats                  # all tables, default corpus
//	cstats -table 3         # just Table 3
//	cstats -seed 7 -cfiles 200 -headers 48
//	cstats -table 3 -j 8 -metrics
//	cstats -analyze         # run the analysis passes over the corpus
//	cstats -table 3 -cpuprofile cpu.out -memprofile mem.out
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/analysis"
	"repro/internal/analysis/passes"
	"repro/internal/cli"
	"repro/internal/corpus"
	"repro/internal/daemon"
	"repro/internal/harness"
)

func main() {
	table := flag.String("table", "all", "which table to print: 2a, 2b, 3, or all")
	seed := flag.Int64("seed", 1, "corpus seed")
	cfiles := flag.Int("cfiles", 40, "number of compilation units")
	headers := flag.Int("headers", 24, "number of generated headers")
	var o cli.Options
	o.RegisterFlags(flag.CommandLine, cli.Store, "for the Table 3 sweep", "unit")
	metrics := flag.Bool("metrics", false, "print the harness metrics snapshot after the Table 3 sweep")
	analyze := flag.Bool("analyze", false, "run the variability analysis passes during the Table 3 sweep and print diagnostics")
	doLink := flag.Bool("link", false, "extract conditional link facts during the Table 3 sweep and print cross-unit findings (runs in-process: the synthetic corpus is in-memory)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	quarantine := flag.Bool("quarantine", false, "retry failed or budget-tripped units once, then quarantine")
	daemonAddr := flag.String("daemon", "", "serve the Table 3 sweep from a superd daemon at this address; falls back in-process")
	daemonOpts := daemon.FlagClientOptions(flag.CommandLine)
	flag.Parse()

	base, err := o.Config()
	if err != nil {
		fmt.Fprintln(os.Stderr, "cstats:", err)
		os.Exit(2)
	}
	if base.HeaderCache, err = o.HeaderCache(); err != nil {
		fmt.Fprintln(os.Stderr, "cstats:", err)
		os.Exit(1)
	}
	base.Quarantine = *quarantine

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	defer func() {
		if *memprofile == "" {
			return
		}
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "memprofile:", err)
			return
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "memprofile:", err)
		}
	}()

	c := corpus.Generate(corpus.Params{Seed: *seed, CFiles: *cfiles, GenHeaders: *headers})

	if *table == "all" || *table == "2a" {
		fmt.Println(harness.Table2a(c))
	}
	if *table == "all" || *table == "2b" {
		fmt.Println(harness.Table2b(c))
	}
	if *table == "all" || *table == "3" {
		if *daemonAddr != "" && *doLink {
			// The corpus link join happens over the in-memory synthetic
			// corpus, which the daemon cannot see; the sweep stays local.
			fmt.Fprintln(os.Stderr, "cstats: -link runs in-process; ignoring -daemon for this sweep")
		} else if *daemonAddr != "" {
			if err := table3ViaDaemon(*daemonAddr, *daemonOpts, *seed, *cfiles, *headers, *analyze, base, *metrics); err == nil {
				return
			} else {
				fmt.Fprintf(os.Stderr, "cstats: %v; running in-process\n", err)
			}
		}
		cfg := base
		cfg.Link = *doLink
		if *analyze {
			cfg.Analyzers = passes.All()
		}
		results, m := harness.RunMetered(context.Background(), c, cfg)
		fmt.Println(harness.Table3(results))
		printAnalysis(results)
		if *doLink && m.LinkResult != nil {
			// Findings arrive in the linker's total deterministic order, so
			// this listing is byte-stable at any -j / -parse-workers.
			for _, f := range m.LinkResult.Findings {
				printDiag(analysis.LinkDiagnostic(f))
			}
		}
		if *metrics {
			fmt.Print(m)
		}
	}
}

// table3ViaDaemon runs the Table 3 sweep on a superd daemon and renders it
// from the returned deterministic per-unit statistics — the same fields the
// in-process path feeds harness.Table3, so the table is byte-identical.
func table3ViaDaemon(addr string, opts daemon.ClientOptions, seed int64, cfiles, headers int, analyze bool, cfg harness.RunConfig, metrics bool) error {
	client, err := daemon.DialOptions(addr, opts)
	if err != nil {
		return err
	}
	req := daemon.CorpusRequest{
		Seed:         seed,
		CFiles:       cfiles,
		Headers:      headers,
		Mode:         "bdd",
		Opt:          "all",
		Jobs:         cfg.Jobs,
		ParseWorkers: cfg.ParseWorkers,
		Limits:       daemon.FromGuard(cfg.Budget),
	}
	if analyze {
		req.Passes = []string{"all"}
	}
	resp, err := client.Corpus(&req)
	if err != nil {
		return err
	}
	results := make([]harness.UnitResult, len(resp.Units))
	for i, u := range resp.Units {
		results[i] = harness.UnitResult{
			File:        u.File,
			Bytes:       u.Bytes,
			Tokens:      u.Tokens,
			Pre:         u.Pre,
			ChoiceNodes: u.Parse.ChoiceNodes,
		}
		results[i].Parse.TypedefForks = u.Parse.TypedefForks
		if u.HasAnalysis {
			r := &analysis.Result{File: u.File, Stats: u.Stats}
			for _, d := range u.Diags {
				r.Diags = append(r.Diags, d.ToAnalysis())
			}
			results[i].Analysis = r
		}
	}
	fmt.Println(harness.Table3(results))
	printAnalysis(results)
	if metrics {
		fmt.Printf("daemon corpus metrics: %d units, %d served from facts, %d computed\n",
			len(resp.Units), resp.FactsHits, resp.FactsMisses)
		cm := client.Metrics()
		fmt.Printf("daemon client: %d attempts, %d retries, %d sheds, %d breaker opens, %d fast fails, breaker %s\n",
			cm.Attempts, cm.Retries, cm.Sheds, cm.BreakerOpens, cm.FastFails, cm.BreakerState)
	}
	return nil
}

// printAnalysis lists every unit's analysis diagnostics. Results are
// indexed by corpus position, and analysis.Run sorts each unit's
// diagnostics, so the listing is deterministic regardless of -j.
func printAnalysis(results []harness.UnitResult) {
	for _, r := range results {
		if r.Analysis == nil {
			continue
		}
		for _, d := range r.Analysis.Diags {
			printDiag(d)
		}
	}
}

// printDiag prints one diagnostic as "pos: pass: msg [when cond]".
func printDiag(d analysis.Diagnostic) {
	pos := d.File
	if d.Line > 0 {
		pos = fmt.Sprintf("%s:%d:%d", d.File, d.Line, d.Col)
	}
	fmt.Printf("%s: %s: %s [when %s]\n", pos, d.Pass, d.Msg, d.CondStr)
}
