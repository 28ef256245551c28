package harness

// Worker-pool tests for the parallel harness. Run them under the race
// detector (`go test -race ./internal/harness/...`, the tier-1 CI gate):
// they drive a harness run with 8 workers over shared corpus state,
// including a unit that deliberately trips the subparser kill switch
// mid-run and a unit that panics inside a worker.

import (
	"context"
	"strings"
	"testing"

	"repro/internal/fmlr"
)

// TestParallelMatchesSequential asserts the tentpole invariant: a parallel
// run produces exactly the sequential run's per-unit results (same parse
// outcomes, token counts, choice nodes, failure set) in the same order.
func TestParallelMatchesSequential(t *testing.T) {
	c := smallCorpus()
	seq := Run(c, RunConfig{Parser: fmlr.OptAll, Jobs: 1})
	par := Run(c, RunConfig{Parser: fmlr.OptAll, Jobs: 8})
	if len(seq) != len(par) {
		t.Fatalf("result counts: %d vs %d", len(par), len(seq))
	}
	for i := range seq {
		s, p := &seq[i], &par[i]
		if s.File != p.File {
			t.Errorf("unit %d ordering: %s vs %s", i, p.File, s.File)
		}
		if s.Tokens != p.Tokens || s.Bytes != p.Bytes || s.ChoiceNodes != p.ChoiceNodes ||
			s.Killed != p.Killed || s.ParseFail != p.ParseFail {
			t.Errorf("%s: parallel result diverged:\nseq %+v\npar %+v", s.File, s, p)
		}
		if s.Parse.Forks != p.Parse.Forks || s.Parse.Merges != p.Parse.Merges ||
			s.Parse.Iterations != p.Parse.Iterations {
			t.Errorf("%s: engine stats diverged: seq %+v par %+v", s.File, s.Parse, p.Parse)
		}
	}
}

// TestParallelKillSwitch runs the MAPR baseline with a tiny kill switch on
// 8 workers: units that explode must degrade to recorded Killed results
// while the rest of the run completes normally.
func TestParallelKillSwitch(t *testing.T) {
	c := smallCorpus()
	opts := fmlr.OptMAPR
	opts.KillSwitch = 50
	results, m := RunMetered(context.Background(), c, RunConfig{Parser: opts, Jobs: 8})
	if len(results) != len(c.CFiles) {
		t.Fatalf("results = %d, units = %d", len(results), len(c.CFiles))
	}
	killed := 0
	for i, r := range results {
		if r.File != c.CFiles[i] {
			t.Errorf("unit %d ordering: %s vs %s", i, r.File, c.CFiles[i])
		}
		if r.Killed {
			killed++
		}
	}
	if killed == 0 {
		t.Error("no unit tripped the kill switch under MAPR with kill=50")
	}
	if killed == len(results) {
		t.Error("every unit tripped the kill switch; expected survivors")
	}
	if n := m.Get("harness_killed_units"); n != int64(killed) {
		t.Errorf("harness_killed_units = %d, counted %d", n, killed)
	}
}

// TestParallelPanicRecovered injects a panic into one unit's worker and
// asserts it degrades to that unit's failure record.
func TestParallelPanicRecovered(t *testing.T) {
	c := smallCorpus()
	poisoned := c.CFiles[len(c.CFiles)/2]
	testHookUnitStart = func(file string) {
		if file == poisoned {
			panic("injected lexer failure")
		}
	}
	defer func() { testHookUnitStart = nil }()

	results, m := RunMetered(context.Background(), c, RunConfig{Parser: fmlr.OptAll, Jobs: 8})
	for _, r := range results {
		if r.File == poisoned {
			if !r.ParseFail || !strings.Contains(r.Err, "injected lexer failure") {
				t.Errorf("poisoned unit not recorded as panic failure: %+v", r)
			}
		} else if r.ParseFail || r.Err != "" {
			t.Errorf("%s: healthy unit failed: %+v", r.File, r)
		}
	}
	if n := m.Get("harness_failed_units"); n != 1 {
		t.Errorf("harness_failed_units = %d, want 1", n)
	}
}

// TestParallelCancellation cancels the context before the run starts:
// every unit must be recorded as cancelled, and the call must return.
func TestParallelCancellation(t *testing.T) {
	c := smallCorpus()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, m := RunMetered(ctx, c, RunConfig{Parser: fmlr.OptAll, Jobs: 4})
	if len(results) != len(c.CFiles) {
		t.Fatalf("results = %d, units = %d", len(results), len(c.CFiles))
	}
	for _, r := range results {
		if r.Err != "run cancelled" {
			t.Errorf("%s: Err = %q, want cancellation record", r.File, r.Err)
		}
	}
	if n := m.Get("harness_failed_units"); n != int64(len(results)) {
		t.Errorf("harness_failed_units = %d, want %d", n, len(results))
	}
}

// TestMetricsSnapshot sanity-checks the observability counters on a clean
// parallel run.
func TestMetricsSnapshot(t *testing.T) {
	c := smallCorpus()
	results, m := RunMetered(context.Background(), c, RunConfig{Parser: fmlr.OptAll, Jobs: 4})
	if m.Get("harness_units") != int64(len(results)) || m.Get("harness_failed_units") != 0 || m.Get("harness_killed_units") != 0 {
		t.Errorf("unit counts: %v", m.Map())
	}
	if n := m.Get("harness_jobs"); n != 4 {
		t.Errorf("harness_jobs = %d, want 4", n)
	}
	if n := m.Get("harness_max_in_flight"); n < 1 || n > 4 {
		t.Errorf("harness_max_in_flight = %d, want 1..4", n)
	}
	if m.Get("harness_parse_ns") <= 0 || m.Get("harness_wall_ns") <= 0 {
		t.Errorf("missing stage times: %v", m.Map())
	}
	if m.Get("harness_forks") <= 0 || m.Get("harness_merges") <= 0 {
		t.Errorf("missing engine totals: %v", m.Map())
	}
	if n := m.Get("harness_bdd_nodes"); n <= 0 {
		t.Errorf("harness_bdd_nodes = %d, want > 0 in BDD mode", n)
	}
	if m.Get("table_cache_hits")+m.Get("table_cache_misses") == 0 {
		t.Error("table cache outcome never recorded despite grammar load")
	}
	if out := m.String(); !strings.HasPrefix(out, "harness metrics\n") {
		t.Errorf("Metrics.String lacks its header:\n%s", out)
	}
}
