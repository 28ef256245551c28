package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/guard/faultinject"
)

// chaosSeeds returns the fault-schedule seed matrix. CHAOS_SEED pins a
// single seed, replaying one schedule exactly — every fault decision is a
// pure function of (seed, request key, attempt).
func chaosSeeds(t *testing.T) []int64 {
	t.Helper()
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEED=%q: %v", s, err)
		}
		return []int64{v}
	}
	return []int64{1, 2, 3}
}

// chaosClient builds a thin client whose transport injects cfg's faults and
// whose retry sleeps are skipped (schedules stay deterministic; wall clocks
// don't). The breaker is disabled so the retry layer alone must absorb the
// faults.
func chaosClient(t *testing.T, ts *httptest.Server, cfg faultinject.HTTPConfig, retries int) (*Client, *faultinject.Transport) {
	t.Helper()
	if cfg.Stall == 0 {
		cfg.Stall = time.Millisecond
	}
	var ft *faultinject.Transport
	c := newClient(strings.TrimPrefix(ts.URL, "http://"), ClientOptions{
		RequestTimeout:   time.Minute,
		Retries:          retries,
		BackoffBase:      time.Millisecond,
		BackoffMax:       2 * time.Millisecond,
		BreakerThreshold: -1,
		JitterSeed:       cfg.Seed,
		Warn:             io.Discard,
		WrapTransport: func(base http.RoundTripper) http.RoundTripper {
			ft = faultinject.NewTransport(base, cfg)
			return ft
		},
	})
	c.sleep = func(context.Context, time.Duration) error { return nil }
	return c, ft
}

// TestChaosDifferentialLint proves the byte-identity guarantee under fire:
// for every fault kind and every seed, a lint batch served through a
// fault-injecting transport marshals to exactly the bytes a fault-free
// client gets. Rate 1 with a bounded burst guarantees every operation both
// suffers faults and eventually succeeds.
func TestChaosDifferentialLint(t *testing.T) {
	root := writeTestTree(t)
	s := NewServer(Config{Root: root})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	req := &LintRequest{
		Files:        []string{"a.c", "b.c", "broken.c"},
		IncludePaths: []string{"inc"},
		Mode:         "bdd",
	}

	clean, err := Dial(strings.TrimPrefix(ts.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	cleanResp, err := clean.Lint(req)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(cleanResp)
	if err != nil {
		t.Fatal(err)
	}

	for _, seed := range chaosSeeds(t) {
		for _, kind := range faultinject.AllHTTPKinds {
			t.Run(fmt.Sprintf("seed%d/%s", seed, kind), func(t *testing.T) {
				c, ft := chaosClient(t, ts, faultinject.HTTPConfig{
					Seed:  seed,
					Rate:  1,
					Kinds: []faultinject.HTTPKind{kind},
					Burst: 2,
				}, 4)
				resp, err := c.Lint(req)
				if err != nil {
					t.Fatalf("lint under %s faults: %v", kind, err)
				}
				got, err := json.Marshal(resp)
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != string(want) {
					t.Errorf("response under %s faults differs from fault-free bytes", kind)
				}
				if ft.Injected(kind) == 0 {
					t.Errorf("no %s faults injected at rate 1", kind)
				}
				if m := c.Metrics(); m.Retries == 0 {
					t.Error("faults absorbed without any retry — injection did not reach the client")
				}
			})
		}
		t.Run(fmt.Sprintf("seed%d/mixed", seed), func(t *testing.T) {
			c, ft := chaosClient(t, ts, faultinject.HTTPConfig{
				Seed:  seed,
				Rate:  0.6,
				Burst: 3,
			}, 8)
			// At Rate 0.6 a seed may deterministically spare the first few
			// attempts, so keep lints coming (up to 12 rounds) until the
			// schedule fires; 3 rounds minimum keeps differential coverage.
			rounds := 0
			for rounds < 3 || (rounds < 12 && ft.InjectedTotal() == 0) {
				resp, err := c.Lint(req)
				if err != nil {
					t.Fatalf("round %d: %v", rounds, err)
				}
				got, err := json.Marshal(resp)
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != string(want) {
					t.Errorf("round %d: mixed-fault response differs from fault-free bytes", rounds)
				}
				rounds++
			}
			if ft.InjectedTotal() == 0 {
				t.Errorf("mixed schedule injected nothing across %d rounds", rounds)
			}
		})
	}
}

// TestChaosDifferentialCorpus runs the corpus sweep through mixed fault
// schedules and compares against a direct in-process harness run — the full
// thin-client-equals-in-process claim, with the transport actively hostile.
func TestChaosDifferentialCorpus(t *testing.T) {
	s := NewServer(Config{Root: t.TempDir()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	req := corpusReq()
	req.CFiles = 4
	want, err := json.Marshal(inProcessCorpus(req))
	if err != nil {
		t.Fatal(err)
	}

	for _, seed := range chaosSeeds(t) {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			c, _ := chaosClient(t, ts, faultinject.HTTPConfig{
				Seed:  seed,
				Rate:  0.6,
				Burst: 3,
			}, 8)
			resp, err := c.Corpus(&req)
			if err != nil {
				t.Fatalf("corpus under mixed faults: %v", err)
			}
			got, err := json.Marshal(resp.Units)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Error("corpus units under faults differ from a direct in-process run")
			}
		})
	}
}

// TestChaosSeedReplay pins replayability: two fresh transports with the same
// seed, driven through the same operation sequence, inject the identical
// fault schedule — the property CHAOS_SEED relies on to reproduce a failure.
func TestChaosSeedReplay(t *testing.T) {
	root := writeTestTree(t)
	s := NewServer(Config{Root: root})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	req := &LintRequest{Files: []string{"a.c"}, IncludePaths: []string{"inc"}, Mode: "bdd"}

	run := func() (*faultinject.Transport, ClientMetrics) {
		c, ft := chaosClient(t, ts, faultinject.HTTPConfig{Seed: 42, Rate: 0.6, Burst: 3}, 8)
		for i := 0; i < 3; i++ {
			if _, err := c.Lint(req); err != nil {
				t.Fatal(err)
			}
		}
		return ft, c.Metrics()
	}
	ft1, m1 := run()
	ft2, m2 := run()
	for _, k := range faultinject.AllHTTPKinds {
		if ft1.Injected(k) != ft2.Injected(k) {
			t.Errorf("%s: %d vs %d injections for the same seed", k, ft1.Injected(k), ft2.Injected(k))
		}
	}
	if ft1.Passed() != ft2.Passed() || m1.Attempts != m2.Attempts || m1.Retries != m2.Retries {
		t.Errorf("replay diverged: passed %d/%d, attempts %d/%d, retries %d/%d",
			ft1.Passed(), ft2.Passed(), m1.Attempts, m2.Attempts, m1.Retries, m2.Retries)
	}
}

// TestChaosBreakerFallback proves a persistently dead daemon trips the
// breaker and later operations fail instantly without network traffic — the
// signal the CLIs turn into their in-process fallback.
func TestChaosBreakerFallback(t *testing.T) {
	s := NewServer(Config{Root: writeTestTree(t)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var ft *faultinject.Transport
	c := newClient(strings.TrimPrefix(ts.URL, "http://"), ClientOptions{
		Retries:          1,
		BackoffBase:      time.Millisecond,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Hour,
		Warn:             io.Discard,
		WrapTransport: func(base http.RoundTripper) http.RoundTripper {
			// Burst 0: a persistent fault that outlasts any retry budget.
			ft = faultinject.NewTransport(base, faultinject.HTTPConfig{
				Seed: 1, Rate: 1, Burst: 0,
				Kinds: []faultinject.HTTPKind{faultinject.HTTPConnReset},
			})
			return ft
		},
	})
	c.sleep = func(context.Context, time.Duration) error { return nil }
	req := &LintRequest{Files: []string{"a.c"}, IncludePaths: []string{"inc"}, Mode: "bdd"}

	if _, err := c.Lint(req); err == nil {
		t.Fatal("lint succeeded through a dead transport")
	}
	injectedAfterFirst := ft.InjectedTotal()
	if injectedAfterFirst == 0 {
		t.Fatal("no faults injected")
	}
	_, err := c.Lint(req)
	if !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("second op err = %v; want ErrBreakerOpen", err)
	}
	if ft.InjectedTotal() != injectedAfterFirst {
		t.Error("open breaker let an operation reach the transport")
	}
	if m := c.Metrics(); m.BreakerOpens != 1 || m.FastFails == 0 {
		t.Fatalf("metrics = %+v", m)
	}
}

// armUnitPanic arms a fault plan that panics exactly one of files at the
// parse-start fault point. Every fault decision is a pure function of
// (seed, unit, point), so the seed search is deterministic.
func armUnitPanic(t *testing.T, files []string, poisoned string) {
	t.Helper()
	t.Cleanup(faultinject.Disarm)
	for seed := int64(0); seed < 1000; seed++ {
		faultinject.Arm(faultinject.Config{Seed: seed, Rate: 0.5,
			Kinds: []faultinject.Kind{faultinject.KindPanic}, Points: []string{faultinject.PointParse}})
		only := true
		for _, f := range files {
			if fire, _ := faultinject.Fires(f, faultinject.PointParse); fire != (f == poisoned) {
				only = false
			}
		}
		if only {
			return
		}
	}
	t.Fatalf("no seed below 1000 panics %s alone", poisoned)
}

// TestChaosUnitPanic panics one unit of a three-file batch on each tool
// endpoint. The unit must come back failed with the panic text, the other
// two exactly as in a fault-free batch, and the server must keep serving.
func TestChaosUnitPanic(t *testing.T) {
	c := startServer(t, NewServer(Config{Root: writeTestTree(t)}))
	files := []string{"a.c", "b.c", "broken.c"}
	const poisoned = "b.c"
	const panicText = "faultinject: panic at " + faultinject.PointParse + " (unit b.c)"
	// Returns the lint, parse and link responses for files.
	batch := func(files []string) (*LintResponse, *ParseResponse, *LinkResponse) {
		t.Helper()
		lint, err := c.Lint(&LintRequest{Files: files, IncludePaths: []string{"inc"}, Mode: "bdd"})
		if err != nil {
			t.Fatal(err)
		}
		parse, err := c.Parse(&ParseRequest{Files: files, IncludePaths: []string{"inc"}, Mode: "bdd", Opt: "all"})
		if err != nil {
			t.Fatal(err)
		}
		lnk, err := c.Link(&LinkRequest{Files: files, IncludePaths: []string{"inc"}, Mode: "bdd"})
		if err != nil {
			t.Fatal(err)
		}
		return lint, parse, lnk
	}
	cleanLint, cleanParse, _ := batch(files)
	_, _, cleanLink := batch([]string{"a.c", "broken.c"})

	armUnitPanic(t, files, poisoned)
	lint, parse, lnk := batch(files)
	faultinject.Disarm()

	for i, f := range files {
		if f == poisoned {
			if u := lint.Units[i]; !u.Failed || !strings.Contains(u.Errors, panicText) {
				t.Errorf("/v1/lint %s = %+v, want failed with %q", f, u, panicText)
			}
			if u := parse.Units[i]; !strings.Contains(u.Err, panicText) || u.HasAST {
				t.Errorf("/v1/parse %s = %+v, want failed with %q", f, u, panicText)
			}
			continue
		}
		if !reflect.DeepEqual(lint.Units[i], cleanLint.Units[i]) {
			t.Errorf("/v1/lint %s changed by the panic next door:\n%+v\n%+v", f, lint.Units[i], cleanLint.Units[i])
		}
		if !reflect.DeepEqual(parse.Units[i], cleanParse.Units[i]) {
			t.Errorf("/v1/parse %s changed by the panic next door:\n%+v\n%+v", f, parse.Units[i], cleanParse.Units[i])
		}
	}
	if len(lnk.Failed) != 1 || lnk.Failed[0].File != poisoned || !strings.Contains(lnk.Failed[0].Errors, panicText) {
		t.Errorf("/v1/link failed = %+v, want %s with %q", lnk.Failed, poisoned, panicText)
	}
	lnk.Failed, lnk.FactsMisses = nil, cleanLink.FactsMisses
	if !reflect.DeepEqual(lnk, cleanLink) {
		t.Errorf("/v1/link without the panicked unit:\n%+v\nwant the two-unit link\n%+v", lnk, cleanLink)
	}

	// The server survived: the next batch is served in full.
	if again, _, _ := batch(files); !reflect.DeepEqual(again, cleanLint) {
		t.Errorf("lint after the panic = %+v, want %+v", again, cleanLint)
	}
}
