package harness

// The chaos suite (run in CI under -race) drives the corpus with
// deterministic fault injection at every stage boundary and asserts the
// three robustness invariants of the governor design:
//
//  1. zero crashes — every unit yields a UnitResult, the run completes;
//  2. deterministic quarantine — two identically-seeded faulted runs
//     quarantine exactly the same unit set, regardless of scheduling;
//  3. isolation — units the fault plan does not touch produce results
//     identical to a clean run.
//
// Header caching is disabled for the faulted runs: a fault on a shared
// header's lex would otherwise fire only in whichever unit happens to fill
// the cache first, making the quarantine set scheduling-dependent. The
// header-cache fault point gets its own sequential test below.

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/fmlr"
	"repro/internal/guard"
	"repro/internal/guard/faultinject"
	"repro/internal/hcache"
	"repro/internal/preprocessor"
)

// chaosSeed returns the fault-plan seed: CHAOS_SEED from the environment
// when set (for replaying a failure), a fixed default otherwise. The seed is
// always logged so any failure is reproducible.
func chaosSeed(t *testing.T) (int64, bool) {
	t.Helper()
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEED=%q: %v", s, err)
		}
		t.Logf("chaos seed %d (from CHAOS_SEED)", v)
		return v, true
	}
	const def = 20260805
	t.Logf("chaos seed %d (default; override with CHAOS_SEED)", def)
	return def, false
}

// comparable projects the deterministic, timing-free part of a UnitResult.
func comparableResult(r *UnitResult) string {
	return fmt.Sprintf("%s b=%d t=%d choice=%d bdd=%d killed=%v fail=%v err=%q pre=%+v",
		r.File, r.Bytes, r.Tokens, r.ChoiceNodes, r.BDDNodes,
		r.Killed, r.ParseFail, r.Err, r.Pre)
}

func TestChaosCorpus(t *testing.T) {
	seed, fromEnv := chaosSeed(t)
	c := smallCorpus()
	cfg := RunConfig{Parser: fmlr.OptAll, NoHeaderCache: true}

	clean := Run(c, cfg)

	faultCfg := faultinject.Config{
		Seed:  seed,
		Rate:  0.5,
		Delay: time.Millisecond,
		Points: []string{
			faultinject.PointHarnessUnit,
			faultinject.PointPreprocess,
			faultinject.PointLex,
			faultinject.PointCondExpr,
			faultinject.PointParse,
		},
	}
	faultinject.Arm(faultCfg)
	defer faultinject.Disarm()

	qcfg := cfg
	qcfg.Quarantine = true
	runA, mA := RunMetered(context.Background(), c, qcfg)
	runB, mB := RunMetered(context.Background(), c, qcfg)

	// Invariant 1: zero crashes — every unit is accounted for.
	for _, results := range [][]UnitResult{runA, runB} {
		if len(results) != len(c.CFiles) {
			t.Fatalf("faulted run lost units: %d of %d", len(results), len(c.CFiles))
		}
		for i := range results {
			if results[i].File == "" {
				t.Fatalf("unit %d has no result", i)
			}
		}
	}

	// Invariant 2: quarantine is deterministic across identically-seeded runs.
	if got, want := strings.Join(mA.Quarantined, ","), strings.Join(mB.Quarantined, ","); got != want {
		t.Errorf("quarantine sets differ between identically-faulted runs:\n A: %s\n B: %s", got, want)
	}
	if n := mA.Get("harness_quarantined_units"); n != int64(len(mA.Quarantined)) {
		t.Errorf("harness_quarantined_units=%d but %d paths listed", n, len(mA.Quarantined))
	}
	if !fromEnv && len(mA.Quarantined) == 0 {
		t.Errorf("default chaos seed injected no quarantining fault; raise Rate or change the default seed")
	}

	// Every quarantined unit must have been retried and still unhealthy, and
	// panics must carry a stack and the unit path.
	quarantined := map[string]bool{}
	for _, q := range mA.Quarantined {
		quarantined[q] = true
	}
	for i := range runA {
		r := &runA[i]
		if r.Quarantined {
			if !r.Retried {
				t.Errorf("%s: quarantined without a retry", r.File)
			}
			if r.Err == "" && r.Budget == nil {
				t.Errorf("%s: quarantined but healthy-looking result", r.File)
			}
		}
		if strings.HasPrefix(r.Err, "panic") {
			if r.Stack == "" {
				t.Errorf("%s: recovered panic lacks a stack trace", r.File)
			}
			if !strings.Contains(r.Err, r.File) {
				t.Errorf("%s: panic record %q lacks the unit path", r.File, r.Err)
			}
		}
	}

	// Invariant 3: un-quarantined units match the clean run exactly.
	// (Delay faults change only timing; exhaust/cancel/panic faults are
	// deterministic and always end in quarantine.)
	for i := range runA {
		if quarantined[runA[i].File] {
			continue
		}
		if got, want := comparableResult(&runA[i]), comparableResult(&clean[i]); got != want {
			t.Errorf("un-faulted unit diverged from clean run:\n got %s\nwant %s", got, want)
		}
	}

	// The faulted runs' trip accounting must reach the metrics snapshot.
	if trips := mA.Get("harness_budget_trips"); trips > 0 {
		total := int64(0)
		for a := guard.AxisNone + 1; a < guard.NumAxes; a++ {
			total += mA.Get("harness_trips_" + metricName(a.String()))
		}
		if total != trips {
			t.Errorf("per-axis trips sum to %d, harness_budget_trips=%d", total, trips)
		}
	}
	if !strings.Contains(mA.String(), "quarantined") {
		t.Errorf("metrics rendering lacks the guard line:\n%s", mA.String())
	}
}

// TestChaosHeaderCachePoint exercises the header-cache stage boundary
// sequentially (the cache-fill race is exactly why the main chaos test
// disables caching): with a budget-exhaust fault firing on every unit, each
// unit degrades, recordings are poisoned rather than stored, and quarantine
// catches the whole corpus deterministically.
func TestChaosHeaderCachePoint(t *testing.T) {
	c := smallCorpus()
	faultinject.Arm(faultinject.Config{
		Seed:   1,
		Rate:   1.0,
		Kinds:  []faultinject.Kind{faultinject.KindExhaust},
		Points: []string{faultinject.PointHeaderCache},
	})
	defer faultinject.Disarm()

	run := func() ([]UnitResult, Metrics) {
		return RunMetered(context.Background(), c, RunConfig{
			Parser:      fmlr.OptAll,
			Jobs:        1,
			HeaderCache: hcache.New(hcache.Options{}),
			Quarantine:  true,
		})
	}
	_, mA := run()
	_, mB := run()
	if n := mA.Get("harness_quarantined_units"); n != int64(len(c.CFiles)) {
		t.Errorf("exhaust-on-every-unit quarantined %d of %d units", n, len(c.CFiles))
	}
	if strings.Join(mA.Quarantined, ",") != strings.Join(mB.Quarantined, ",") {
		t.Errorf("sequential header-cache chaos not deterministic:\n A: %v\n B: %v", mA.Quarantined, mB.Quarantined)
	}
	if mA.Get("harness_trips_fault_injected") == 0 {
		t.Errorf("expected fault-injected trips, counts: %v", mA.Map())
	}
}

// slowCorpus is a single-unit corpus whose one compilation unit is a macro
// bomb that cannot finish within any reasonable deadline.
func slowCorpus() *corpus.Corpus {
	var b strings.Builder
	b.WriteString("#define X0 x\n")
	for i := 1; i <= 30; i++ {
		fmt.Fprintf(&b, "#define X%d X%d X%d\n", i, i-1, i-1)
	}
	b.WriteString("int y = X30;\n")
	return &corpus.Corpus{
		FS:     preprocessor.MapFS{"slow.c": b.String()},
		CFiles: []string{"slow.c"},
	}
}

// TestDeadlineAbandonsInFlightUnit is the satellite-1 acceptance test: a
// context deadline must abandon a unit that is already running, not just
// skip queued ones.
func TestDeadlineAbandonsInFlightUnit(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	results, m := RunMetered(ctx, slowCorpus(), RunConfig{Parser: fmlr.OptAll})
	elapsed := time.Since(start)
	if elapsed > 10*time.Second {
		t.Fatalf("run took %v; deadline did not reach the in-flight unit", elapsed)
	}
	r := &results[0]
	if r.Budget == nil {
		t.Fatalf("slow unit has no budget diagnostic: %+v", r)
	}
	if r.Budget.Axis != guard.AxisWall && r.Budget.Axis != guard.AxisCancel {
		t.Errorf("trip axis = %v, want wall-clock or cancelled", r.Budget.Axis)
	}
	if n := m.Get("harness_budget_trips"); n != 1 {
		t.Errorf("harness_budget_trips = %d, want 1", n)
	}
}

// TestCancelAbandonsInFlightUnit cancels mid-run (rather than via deadline)
// and expects the same prompt abandonment.
func TestCancelAbandonsInFlightUnit(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(30*time.Millisecond, cancel)
	defer timer.Stop()
	defer cancel()
	start := time.Now()
	results, _ := RunMetered(ctx, slowCorpus(), RunConfig{Parser: fmlr.OptAll})
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("run took %v; cancellation did not reach the in-flight unit", elapsed)
	}
	if d := results[0].Budget; d == nil || d.Axis != guard.AxisCancel {
		t.Errorf("expected a cancellation trip, got %v", d)
	}
}

// TestBudgetLimitsFlowThroughRunConfig checks that RunConfig.Budget reaches
// the stages: a tiny token budget degrades every unit but the run completes
// with partial results and per-axis accounting.
func TestBudgetLimitsFlowThroughRunConfig(t *testing.T) {
	c := smallCorpus()
	results, m := RunMetered(context.Background(), c, RunConfig{
		Parser: fmlr.OptAll,
		Budget: guard.Limits{Tokens: 50},
	})
	if n := m.Get("harness_budget_trips"); n != int64(len(c.CFiles)) {
		t.Fatalf("harness_budget_trips = %d, want %d (every unit)", n, len(c.CFiles))
	}
	if n := m.Get("harness_trips_tokens"); n != int64(len(c.CFiles)) {
		t.Errorf("harness_trips_tokens = %d, want %d", n, len(c.CFiles))
	}
	for i := range results {
		if results[i].Budget == nil {
			t.Errorf("%s: no diagnostic", results[i].File)
		}
	}
}
