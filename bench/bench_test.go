package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// parent re-runs os.Executable() for each round, and a child round runs
// main. Everything else runs from the repository root, where the benchmark
// finds BENCHMARK.json and the golden references.
func TestMain(m *testing.M) {
	for _, a := range os.Args[1:] {
		if a == "-child" {
			main()
			os.Exit(0)
		}
	}
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// TestEveryWorkload runs every workload at toy size, untraced and traced,
// through the real parent and child processes, and checks that the metrics
// emitted are exactly the ones BENCHMARK.json declares, with its units, and
// that every trace file parses with every span's parent present.
func TestEveryWorkload(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "results.json")
	o := &options{seed: 1, seconds: 0.01, toy: true, out: out}
	runs, err := runAll(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2*len(spec.Workloads) {
		t.Fatalf("got %d runs, want %d", len(runs), 2*len(spec.Workloads))
	}
	for _, r := range runs {
		decl := spec.EndToEnd
		if r.Trace {
			decl = spec.PerLayer
		}
		if len(r.Metrics) != len(decl) {
			t.Errorf("%s trace=%v: %d metrics, want %d", r.Workload, r.Trace, len(r.Metrics), len(decl))
		}
		for _, d := range decl {
			if got, ok := r.Metrics[d.Name]; !ok || got.Unit != d.Unit {
				t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", r.Workload, r.Trace, d.Name, got, d.Unit)
			}
		}
		if r.Attempted < 1 || r.Failed != 0 {
			t.Errorf("%s trace=%v: %d attempted, %d failed", r.Workload, r.Trace, r.Attempted, r.Failed)
		}
	}
	if f, err := readResults(out); err != nil || len(f.Runs) != len(runs) {
		t.Errorf("results file: %v, %d runs", err, len(f.Runs))
	}

	for _, w := range spec.Workloads {
		data, err := os.ReadFile(filepath.Join(out+".trace", w.Name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var tf traceFile
		if err := json.Unmarshal(data, &tf); err != nil {
			t.Fatalf("%s trace: %v", w.Name, err)
		}
		if len(tf.TraceEvents) == 0 {
			t.Errorf("%s trace has no spans", w.Name)
		}
		ids := map[float64]bool{0: true}
		for _, e := range tf.TraceEvents {
			ids[e.Args["id"].(float64)] = true
		}
		for _, e := range tf.TraceEvents {
			if p := e.Args["parent"].(float64); !ids[p] {
				t.Errorf("%s trace: span %v (%s) has missing parent %v", w.Name, e.Args["id"], e.Name, p)
			}
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1}
	rep := func(v ...float64) []float64 {
		var out []float64
		for len(out) < 10 {
			out = append(out, v...)
		}
		return out
	}
	for _, c := range []struct {
		name string
		a, b []float64
		want string
	}{
		{"same", rep(10, 10.1, 9.9), rep(10, 10.1, 9.9), "unchanged"},
		{"faster", rep(10, 10.1, 9.9), rep(8, 8.1, 7.9), "improved"},
		{"slower", rep(10, 10.1, 9.9), rep(12, 12.1, 11.9), "regressed"},
		{"noisy", rep(5, 10, 15), rep(5, 10, 15), "unresolved"},
		{"few pairs", []float64{10, 10.1, 9.9}, []float64{8, 8.1, 7.9}, "unchanged"},
	} {
		if got := verdict(lower, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}
