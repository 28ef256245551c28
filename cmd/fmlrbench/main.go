// Command fmlrbench reproduces the paper's parser experiments (§6.2-6.3):
// Figure 8's subparser counts per optimization level, Figure 9's SuperC vs
// TypeChef latency comparison, Figure 10's stage breakdown, and the gcc-like
// single-configuration baseline.
//
// Units are processed by the parallel harness (-j workers, GOMAXPROCS by
// default); the C parse tables are loaded from the on-disk cache after the
// first run. A per-stage metrics snapshot for one instrumented sweep is
// printed at the end.
//
// -cpuprofile/-memprofile write pprof profiles of whatever the invocation
// ran. Timing baselines come from the bench/ module (bash bench/run.sh) and
// the root package's go test -bench benchmarks, not from this command.
//
// Usage:
//
//	fmlrbench                 # every figure, default corpus
//	fmlrbench -fig 8a         # one figure
//	fmlrbench -fig 9 -cfiles 120
//	fmlrbench -j 1            # sequential (for speedup comparisons)
//	fmlrbench -fig 8a -cpuprofile cpu.out
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/cli"
	"repro/internal/corpus"
	"repro/internal/harness"
)

func main() {
	fig := flag.String("fig", "all", "which figure to run: 8a, 8b, 9, 10, gcc, or all")
	seed := flag.Int64("seed", 1, "corpus seed")
	cfiles := flag.Int("cfiles", 24, "number of compilation units")
	headers := flag.Int("headers", 24, "number of generated headers")
	kill := flag.Int("kill", 1000, "subparser kill switch for the MAPR rows")
	points := flag.Int("points", 10, "CDF resolution")
	var o cli.Options
	o.RegisterFlags(flag.CommandLine, 0, "for corpus runs", "unit")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	quarantine := flag.Bool("quarantine", false, "retry failed or budget-tripped units once, then quarantine")
	flag.Parse()

	base, err := o.Config()
	if err != nil {
		fmt.Fprintln(os.Stderr, "fmlrbench:", err)
		os.Exit(2)
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

	if *fig == "all" || *fig == "8a" {
		rows := harness.Figure8(c, base, *kill)
		fmt.Println(harness.RenderFigure8a(rows, *kill))
	}
	if *fig == "all" || *fig == "8b" {
		fmt.Println(harness.Figure8b(c, base, *kill, *points))
	}
	if *fig == "all" || *fig == "9" {
		// The SAT-backed baseline's tail units take minutes each (the knee
		// itself); run both arms on a 12-unit slice so the comparison stays
		// interactive. Pass -cfiles to change the overall corpus size.
		c9 := c
		if len(c.CFiles) > 12 {
			c9 = &corpus.Corpus{Params: c.Params, FS: c.FS, CFiles: c.CFiles[:12], Headers: c.Headers}
		}
		fmt.Println(harness.RenderFigure9(harness.Figure9(c9, base), *points))
	}
	if *fig == "all" || *fig == "10" {
		fmt.Println(harness.Figure10(c, base))
	}
	if *fig == "all" || *fig == "gcc" {
		fmt.Println(harness.RenderGcc(c, base))
	}

	// One instrumented sweep for the per-stage observability snapshot
	// (units in flight, stage wall time, forks/merges, BDD nodes, table
	// cache hit/miss, hot-path cache effectiveness), at the default
	// optimization level.
	_, m := harness.RunMetered(context.Background(), c, base)
	fmt.Print(m)
}
