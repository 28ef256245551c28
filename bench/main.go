// Command bench is SuperC's benchmark: four workloads that drive the
// preprocessor, the FMLR parser, the analysis passes, the linker, the
// artifact store and the superd daemon from outside, through their public
// calls, and report end-to-end metrics from untraced runs and per-layer
// metrics from a traced one. BENCHMARK.json declares the workloads and the
// metrics; README.md explains them. Run it through run.sh from the
// repository root:
//
//	bash bench/run.sh --workload batch-link --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh -seed 1 -out results.json
//	bash bench/run.sh -compare A.json B.json
//
// Each measured round runs in a fresh child process (this binary again), so
// every round pays process start-up and fills its caches from cold; the
// parent times the child's set-up and reads its peak resident set.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/cgrammar"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	toy      bool

	// Child-process settings, set by the parent.
	child    string
	round    int
	work     string
	traceOut string
	check    bool
	prime    bool
}

func (o *options) size() size {
	if o.toy {
		return toySize
	}
	return fullSize
}

// traceDir is where traced rounds write their Chrome trace files.
func (o *options) traceDir() string {
	out := o.out
	if out == "" {
		out = filepath.Join(buildDir, "results.json")
	}
	return out + ".trace"
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("bench: ")
	var o options
	var trace int
	var compare bool
	flag.StringVar(&o.workload, "workload", "", "workload to run; empty runs every workload, untraced then traced")
	flag.Int64Var(&o.seed, "seed", 1, "seed every input is generated from (seed 2 is kept back to check claims)")
	flag.Float64Var(&o.seconds, "seconds", 0, "measured seconds per run (0: run_seconds from BENCHMARK.json)")
	flag.IntVar(&trace, "trace", 0, "1: one untraced and one traced round, reporting per-layer metrics")
	flag.StringVar(&o.out, "out", "", "append the runs to this results file; traces go to <out>.trace/")
	flag.BoolVar(&compare, "compare", false, "compare two results files: -compare A.json B.json")
	flag.BoolVar(&o.toy, "toy", false, "toy input sizes, for tests")
	flag.StringVar(&o.child, "child", "", "internal: run one round of this workload")
	flag.IntVar(&o.round, "round", 0, "internal: round number")
	flag.StringVar(&o.work, "work", "", "internal: the run's working directory")
	flag.StringVar(&o.traceOut, "trace-out", "", "internal: trace this round into this file")
	flag.BoolVar(&o.check, "check", false, "internal: check the round's output against the in-process chain")
	flag.BoolVar(&o.prime, "prime", false, "internal: fill the link-edit store")
	flag.Parse()
	o.trace = trace == 1

	var err error
	switch {
	case o.child != "":
		err = childMain(&o)
	case compare:
		if flag.NArg() != 2 {
			log.Fatal("usage: -compare A.json B.json")
		}
		err = compareMain(flag.Arg(0), flag.Arg(1))
	default:
		err = runMain(&o)
	}
	if err != nil {
		log.Fatal(err)
	}
}

// childMain runs one round: set-up, "ready", the timed work, the result line.
func childMain(o *options) error {
	runtime.GOMAXPROCS(runtime.NumCPU())
	w, err := workloadByName(o.child)
	if err != nil {
		return err
	}
	a := &childArgs{seed: o.seed, sz: o.size(), work: o.work, round: o.round, check: o.check}
	if o.traceOut != "" {
		a.tr = newTracer()
	}
	t0 := time.Now()
	cgrammar.MustLoad()
	load := time.Since(t0)
	ready := func() { fmt.Println("ready") }

	var out *roundOut
	if o.prime {
		ready()
		out, err = &roundOut{}, primeLinkEdit(a)
	} else {
		out, err = w.run(a, ready)
	}
	if err != nil {
		return err
	}
	if a.tr != nil {
		t0 := time.Now()
		if _, err := cgrammar.Rebuild(); err != nil {
			return err
		}
		out.Layers["cgrammar.load_ms"] = msOf(load)
		out.Layers["cgrammar.build_ms"] = msOf(time.Since(t0))
		if err := a.tr.write(o.traceOut); err != nil {
			return err
		}
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}

// runMain runs the benchmark and ends standard output with the result line
// of its last run.
func runMain(o *options) error {
	runs, err := runAll(o)
	if err != nil {
		return err
	}
	last := runs[len(runs)-1]
	line, err := json.Marshal(map[string]any{
		"correct": true, "attempted": last.Attempted, "failed": last.Failed, "metrics": last.Metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runAll runs one workload, or every workload untraced and traced, after
// checking the hand-checked references; it prints every metric and appends
// the runs to o.out.
func runAll(o *options) ([]*runResult, error) {
	spec, err := loadSpec()
	if err != nil {
		return nil, err
	}
	if o.seconds <= 0 {
		o.seconds = float64(spec.RunSeconds)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	// The benchmark owns its parse-table cache; loading here fills it before
	// any child starts.
	if err := os.Setenv("SUPERC_TABLE_CACHE_DIR", filepath.Join(buildDir, "tables")); err != nil {
		return nil, err
	}
	cgrammar.MustLoad()
	fmt.Println(stamp(o.seed))
	if err := checkGoldens(); err != nil {
		return nil, err
	}

	var names []string
	traces := []bool{o.trace}
	if o.workload == "" {
		for _, w := range spec.Workloads {
			names = append(names, w.Name)
		}
		traces = []bool{false, true}
	} else if spec.hasWorkload(o.workload) {
		names = []string{o.workload}
	} else {
		return nil, fmt.Errorf("workload %q is not declared in %s", o.workload, specFile)
	}

	var runs []*runResult
	for _, name := range names {
		w, err := workloadByName(name)
		if err != nil {
			return nil, err
		}
		for _, tr := range traces {
			o.trace = tr
			r, err := runWorkload(o, spec, w)
			if err != nil {
				return nil, err
			}
			printRun(r)
			runs = append(runs, r)
		}
	}
	if o.out != "" {
		if err := appendRuns(o.out, runs); err != nil {
			return nil, err
		}
	}
	return runs, nil
}

func printRun(r *runResult) {
	kind := "end-to-end"
	if r.Trace {
		kind = "per-layer (traced)"
	}
	fmt.Printf("%s %s: %d rounds, %d latency samples, %d attempted, %d failed\n",
		r.Workload, kind, r.Rounds, r.Samples, r.Attempted, r.Failed)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-30s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
}

// resultsFile accumulates runs across invocations, so alternating runs of
// two commits can be compared.
type resultsFile struct {
	Runs []*runResult `json:"runs"`
}

func readResults(path string) (*resultsFile, error) {
	var f resultsFile
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return &f, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &f, nil
}

func appendRuns(path string, runs []*runResult) error {
	f, err := readResults(path)
	if err != nil {
		return err
	}
	f.Runs = append(f.Runs, runs...)
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
