package daemon

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/analysis/passes"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/fmlr"
	"repro/internal/guard"
	"repro/internal/harness"
	"repro/internal/stats"
	"repro/internal/store"
)

// startServer runs s on an httptest TCP listener and returns a protocol
// client dialed at it.
func startServer(t *testing.T, s *Server) *Client {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	c, err := Dial(strings.TrimPrefix(ts.URL, "http://"))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	return c
}

// writeTestTree populates a daemon root with small variational C files that
// trigger both parse-time conditionals and analysis diagnostics.
func writeTestTree(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	files := map[string]string{
		"inc/config.h": `#ifndef CONFIG_H
#define CONFIG_H
#ifdef CONFIG_WIDE
typedef long cell_t;
#else
typedef int cell_t;
#endif
#endif
`,
		"a.c": `#include "config.h"
cell_t table[4];
int first(void) {
#ifdef CONFIG_FAST
  return 1;
#else
  return 2;
#endif
}
`,
		"b.c": `#include "config.h"
#ifdef CONFIG_DEAD
#if 0
int never(void) { return 0; }
#endif
#endif
cell_t second(void) { return (cell_t)3; }
`,
		"broken.c":  "#error always broken\n",
		"noparse.c": "int f(void) { return 2 }\n",
	}
	for name, src := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func TestHealthVersionGate(t *testing.T) {
	c := startServer(t, NewServer(Config{Root: t.TempDir()}))
	h, err := c.Health()
	if err != nil {
		t.Fatal(err)
	}
	if !h.OK || h.Version != Version {
		t.Fatalf("health = %+v", h)
	}
}

func TestClamp(t *testing.T) {
	caps := guard.Limits{Wall: time.Second, Tokens: 1000}
	got := Clamp(guard.Limits{}, caps)
	if got.Wall != time.Second || got.Tokens != 1000 {
		t.Fatalf("unlimited request not capped: %+v", got)
	}
	got = Clamp(guard.Limits{Wall: time.Minute, Tokens: 500, Hoist: 7}, caps)
	if got.Wall != time.Second {
		t.Fatalf("over-cap wall not clamped: %v", got.Wall)
	}
	if got.Tokens != 500 {
		t.Fatalf("under-cap tokens changed: %d", got.Tokens)
	}
	if got.Hoist != 7 {
		t.Fatalf("uncapped axis changed: %d", got.Hoist)
	}
}

func TestPathConfinement(t *testing.T) {
	c := startServer(t, NewServer(Config{Root: writeTestTree(t)}))
	for _, files := range [][]string{{"../outside.c"}, {"/etc/passwd"}} {
		_, err := c.Lint(&LintRequest{Files: files, Mode: "bdd"})
		if err == nil {
			t.Fatalf("lint of %v accepted", files)
		}
	}
	_, err := c.Parse(&ParseRequest{Files: []string{"a.c"}, IncludePaths: []string{"../inc"}, Mode: "bdd", Opt: "all"})
	if err == nil {
		t.Fatal("escape via include path accepted")
	}
}

// lintInProcess is the differential oracle: one unit's analysis built
// directly from core and analysis over the same tree, without the batch
// runner.
func lintInProcess(t *testing.T, root, file string) ([]analysis.Diagnostic, analysis.Stats, string) {
	t.Helper()
	tool := core.New(core.Config{
		FS:           rootFS{root},
		IncludePaths: []string{"inc"},
	})
	res, err := tool.ParseFile(file)
	if err != nil {
		return nil, analysis.Stats{}, err.Error()
	}
	r := analysis.Run(&analysis.Unit{
		File:  file,
		Space: tool.Space(),
		AST:   res.AST,
		PP:    res.Unit,
	}, passes.All())
	return r.Diags, r.Stats, ""
}

func TestLintDifferential(t *testing.T) {
	root := writeTestTree(t)
	c := startServer(t, NewServer(Config{Root: root}))
	req := LintRequest{
		Files:        []string{"a.c", "b.c", "broken.c", "missing.c", "noparse.c"},
		IncludePaths: []string{"inc"},
		Mode:         "bdd",
	}
	resp, err := c.Lint(&req)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Units) != 5 {
		t.Fatalf("%d units; want 5", len(resp.Units))
	}

	// broken.c survives (#error is a diagnostic, not a parse failure) but
	// carries the in-process stderr text; missing.c fails outright.
	bu := resp.Units[2]
	if bu.Failed || !strings.HasPrefix(bu.Errors, "clint: broken.c:") {
		t.Fatalf("broken.c unit = %+v", bu)
	}
	mu := resp.Units[3]
	if !mu.Failed || !strings.HasPrefix(mu.Errors, "clint: missing.c: ") {
		t.Fatalf("missing.c unit = %+v", mu)
	}
	// noparse.c preprocesses but no configuration parses: superc's wording
	// on stderr, and the passes still run over the preprocessor's records.
	if nu := resp.Units[4]; nu.Failed || nu.Errors != "clint: noparse.c: no configuration parsed successfully\n" {
		t.Fatalf("noparse.c unit = %+v", nu)
	}

	// The other units match an in-process run diagnostic by diagnostic.
	for i, file := range []string{0: "a.c", 1: "b.c", 4: "noparse.c"} {
		if file == "" {
			continue
		}
		u := resp.Units[i]
		if u.Failed {
			t.Fatalf("%s failed: %s", file, u.Errors)
		}
		wantDiags, wantStats, wantErr := lintInProcess(t, root, file)
		if wantErr != "" {
			t.Fatalf("in-process %s: %s", file, wantErr)
		}
		if len(u.Diags) != len(wantDiags) {
			t.Fatalf("%s: %d diags via daemon, %d in-process", file, len(u.Diags), len(wantDiags))
		}
		for j := range u.Diags {
			got := u.Diags[j].ToAnalysis()
			want := wantDiags[j] // Cond is space-tied; only CondStr crosses the wire
			if got.CondStr != want.CondStr || got.Msg != want.Msg || got.Pass != want.Pass ||
				got.Line != want.Line || got.Col != want.Col ||
				got.WitnessVerified != want.WitnessVerified {
				t.Errorf("%s diag %d:\n daemon     %+v\n in-process %+v", file, j, got, want)
			}
		}
		if u.Stats.Diagnostics != wantStats.Diagnostics || u.Stats.PassesRun != wantStats.PassesRun {
			t.Errorf("%s stats diverge: %+v vs %+v", file, u.Stats, wantStats)
		}
	}

	// Scheduling independence: jobs 1 and jobs 8 give identical responses.
	j1, err1 := c.Lint(&LintRequest{Files: req.Files, IncludePaths: req.IncludePaths, Mode: "bdd", Jobs: 1})
	j8, err8 := c.Lint(&LintRequest{Files: req.Files, IncludePaths: req.IncludePaths, Mode: "bdd", Jobs: 8})
	if err1 != nil || err8 != nil {
		t.Fatal(err1, err8)
	}
	if !reflect.DeepEqual(j1, j8) {
		t.Error("lint response differs between -j1 and -j8")
	}
}

// TestLintIncludePathsAsGiven checks that a /v1/lint request without
// includePaths searches no include directories: the corpus's include/
// default is for corpus runs only, so a header under <root>/include/ stays
// unfound.
func TestLintIncludePathsAsGiven(t *testing.T) {
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "include"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "include", "hdr.h"), []byte("int h;\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "uses.c"), []byte("#include \"hdr.h\"\nint x;\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	c := startServer(t, NewServer(Config{Root: root}))
	resp, err := c.Lint(&LintRequest{Files: []string{"uses.c"}, Mode: "bdd"})
	if err != nil {
		t.Fatal(err)
	}
	if want := "clint: uses.c:1:1: error: include not found: hdr.h\n"; resp.Units[0].Errors != want {
		t.Errorf("uses.c errors = %q, want %q", resp.Units[0].Errors, want)
	}
}

func TestParseDeterminismAndErrors(t *testing.T) {
	root := writeTestTree(t)
	c := startServer(t, NewServer(Config{Root: root}))
	req := ParseRequest{
		Files:        []string{"a.c", "b.c", "missing.c"},
		IncludePaths: []string{"inc"},
		Mode:         "bdd",
		Opt:          "all",
	}
	resp, err := c.Parse(&req)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Units[0].HasAST || !resp.Units[1].HasAST {
		t.Fatalf("good units missing ASTs: %+v, %+v", resp.Units[0], resp.Units[1])
	}
	if resp.Units[0].Pre.LexTime != 0 {
		t.Error("LexTime crossed the wire")
	}
	if resp.Units[2].Err == "" || resp.Units[2].HasAST {
		t.Fatalf("missing.c unit = %+v", resp.Units[2])
	}
	if resp.TableCache == "" {
		t.Error("TableCache not reported")
	}
	req.Jobs = 8
	resp8, err := c.Parse(&req)
	if err != nil {
		t.Fatal(err)
	}
	resp8.TableCache = resp.TableCache // may flip miss->hit between requests
	if !reflect.DeepEqual(resp, resp8) {
		t.Error("parse response differs between default jobs and -j8")
	}
	// The intra-unit axis must be equally invisible: region-parallel
	// parsing is proven equivalent server-side or falls back.
	req.ParseWorkers = 4
	respPW, err := c.Parse(&req)
	if err != nil {
		t.Fatal(err)
	}
	respPW.TableCache = resp.TableCache
	if !reflect.DeepEqual(resp, respPW) {
		t.Error("parse response differs between sequential and parseWorkers=4")
	}
}

// corpusReq is the canonical differential corpus request.
func corpusReq() CorpusRequest {
	return CorpusRequest{
		Seed:    1,
		CFiles:  8,
		Headers: 8,
		Mode:    "bdd",
		Opt:     "all",
		Passes:  []string{"all"},
	}
}

// inProcessCorpus runs the same sweep the daemon would and reduces it with
// the same projection.
func inProcessCorpus(req CorpusRequest) []CorpusUnit {
	c := corpus.Generate(corpus.Params{Seed: req.Seed, CFiles: req.CFiles, GenHeaders: req.Headers})
	results, _ := harness.RunMetered(context.Background(), c, harness.RunConfig{
		Parser:    fmlr.OptAll,
		Analyzers: passes.All(),
	})
	units := make([]CorpusUnit, len(results))
	for i := range results {
		units[i] = toCorpusUnit(&results[i])
	}
	return units
}

func TestCorpusDifferential(t *testing.T) {
	c := startServer(t, NewServer(Config{Root: t.TempDir()}))
	req := corpusReq()
	req.Jobs = 1
	r1, err := c.Corpus(&req)
	if err != nil {
		t.Fatal(err)
	}
	req.Jobs = 8
	r8, err := c.Corpus(&req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1.Units, r8.Units) {
		t.Error("corpus units differ between jobs=1 and jobs=8")
	}
	// Compare through the wire encoding: the daemon response made a JSON
	// round trip (nil vs empty maps collapse under omitempty), so the
	// canonical form for both sides is their marshaled bytes — which is also
	// the byte-identity claim clients rely on.
	got, err := json.Marshal(r1.Units)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(inProcessCorpus(req))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Error("daemon corpus units differ from a direct in-process harness run")
	}
}

func TestCorpusFactsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := startServer(t, NewServer(Config{Root: t.TempDir(), Store: st}))
	req := corpusReq()

	cold, err := c.Corpus(&req)
	if err != nil {
		t.Fatal(err)
	}
	if cold.FactsHits != 0 || cold.FactsMisses != int64(req.CFiles) {
		t.Fatalf("cold facts: %d hits, %d misses", cold.FactsHits, cold.FactsMisses)
	}

	// Same server, second request: every unit served from the facts cache.
	warm, err := c.Corpus(&req)
	if err != nil {
		t.Fatal(err)
	}
	if warm.FactsHits != int64(req.CFiles) || warm.FactsMisses != 0 {
		t.Fatalf("warm facts: %d hits, %d misses", warm.FactsHits, warm.FactsMisses)
	}
	if !reflect.DeepEqual(cold.Units, warm.Units) {
		t.Error("facts-served units differ from computed units")
	}

	// Restarted server over the same directory: facts survive the process.
	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c2 := startServer(t, NewServer(Config{Root: t.TempDir(), Store: st2}))
	restart, err := c2.Corpus(&req)
	if err != nil {
		t.Fatal(err)
	}
	if restart.FactsHits != int64(req.CFiles) {
		t.Fatalf("restart facts hits = %d; want %d", restart.FactsHits, req.CFiles)
	}
	if !reflect.DeepEqual(cold.Units, restart.Units) {
		t.Error("units served across a restart differ from the original run")
	}

	// A different fingerprint (changed limits) must not reuse stale facts.
	capped := req
	capped.Limits = Limits{Subparsers: 2}
	r, err := c2.Corpus(&capped)
	if err != nil {
		t.Fatal(err)
	}
	if r.FactsHits != 0 {
		t.Errorf("facts reused across a limits change: %d hits", r.FactsHits)
	}
}

// TestWarmHeaderStoreHitRate is the acceptance bound for the header-artifact
// store: a restarted daemon recomputing the corpus (facts bypassed) replays
// shared headers from disk with a >90% store hit rate.
func TestWarmHeaderStoreHitRate(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := startServer(t, NewServer(Config{Root: t.TempDir(), Store: st}))
	req := corpusReq()
	req.NoFacts = true
	if _, err := c.Corpus(&req); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c2 := startServer(t, NewServer(Config{Root: t.TempDir(), Store: st2}))
	if _, err := c2.Corpus(&req); err != nil {
		t.Fatal(err)
	}
	snap := st2.Stats()
	total := snap.Hits + snap.Misses
	if total == 0 {
		t.Fatal("restarted daemon never consulted the store")
	}
	if rate := float64(snap.Hits) / float64(total); rate < 0.9 {
		t.Errorf("warm header store hit rate %.2f (%d/%d); want > 0.9", rate, snap.Hits, total)
	}
}

func TestStatsAndMetrics(t *testing.T) {
	c := startServer(t, NewServer(Config{Root: writeTestTree(t)}))
	if _, err := c.Lint(&LintRequest{Files: []string{"a.c"}, IncludePaths: []string{"inc"}, Mode: "bdd"}); err != nil {
		t.Fatal(err)
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Version != Version {
		t.Fatalf("stats version = %q", stats.Version)
	}
	if stats.Counters["requests_lint"] != 1 || stats.Counters["units_total"] != 1 {
		t.Fatalf("counters = %v", stats.Counters)
	}
	// The names outside readers scrape: bench/daemon.go, the CI workflow and
	// scripts/daemon_smoke.sh.
	for _, name := range []string{
		"hcache_header_hits", "hcache_header_misses", "hcache_lex_hits", "hcache_lex_misses",
		"hcache_bytes_saved", "store_hits", "store_misses", "store_writes", "store_bytes",
		"link_facts_hits", "link_facts_misses", "admission_queued_total", "admission_shed",
		"facts_hits",
	} {
		if _, ok := stats.Counters[name]; !ok {
			t.Errorf("/v1/stats lacks %s", name)
		}
	}
}

// TestLintCountsFailedUnits checks that /v1/lint units fold into the shared
// harness_* totals like every other endpoint's: an unparseable file raises
// harness_failed_units by one.
func TestLintCountsFailedUnits(t *testing.T) {
	root := writeTestTree(t)
	if err := os.WriteFile(filepath.Join(root, "bad.c"), []byte("int x = ;\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	c := startServer(t, NewServer(Config{Root: root}))
	before, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Lint(&LintRequest{Files: []string{"bad.c"}, Mode: "bdd"}); err != nil {
		t.Fatal(err)
	}
	after, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]int64{"harness_failed_units": 1, "harness_units": 1} {
		if d := after.Counters[name] - before.Counters[name]; d != want {
			t.Errorf("%s rose by %d, want %d", name, d, want)
		}
	}
}

// TestMetricSurfaces checks that every registered instrument renders on
// every surface that registers it: the harness text block for a run's
// names, /v1/stats and /metrics for superd's, which share the per-unit,
// link, header cache and store declarations. /metrics must type each name
// once, before its value, with exactly the declared gauges typed gauge.
func TestMetricSurfaces(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(Config{Root: writeTestTree(t), Store: st})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c, err := Dial(strings.TrimPrefix(ts.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Lint(&LintRequest{Files: []string{"a.c"}, IncludePaths: []string{"inc"}, Mode: "bdd"}); err != nil {
		t.Fatal(err)
	}
	snap, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	sample := regexp.MustCompile(`^superd_[a-z0-9_]+ -?[0-9]+$`)
	types := map[string]string{}
	values := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSuffix(string(body), "\n"), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) == 4 && f[0] == "#" && f[1] == "TYPE":
			types[f[2]] = f[3]
		case len(f) >= 3 && f[0] == "#" && f[1] == "HELP":
		case sample.MatchString(line):
			if types[f[0]] == "" || values[f[0]] {
				t.Errorf("/metrics: %s repeated or not typed first", f[0])
			}
			values[f[0]] = true
		default:
			t.Errorf("/metrics: malformed line %q", line)
		}
	}
	var gauges []string
	for _, d := range registry.Descs() {
		if _, ok := snap.Counters[d.Name]; !ok {
			t.Errorf("/v1/stats lacks %s", d.Name)
		}
		if !values["superd_"+d.Name] {
			t.Errorf("/metrics lacks %s", d.Name)
		}
		if d.Kind == stats.KindGauge {
			gauges = append(gauges, d.Name)
			if typ := types["superd_"+d.Name]; typ != "gauge" {
				t.Errorf("/metrics types gauge %s as %q", d.Name, typ)
			}
		}
	}
	if len(snap.Counters) != len(registry.Descs()) || len(values) != len(registry.Descs()) {
		t.Errorf("surfaces render %d and %d names for %d declared", len(snap.Counters), len(values), len(registry.Descs()))
	}
	wantGauges := []string{"admission_in_flight", "admission_queued", "draining", "ready", "store_degraded", "store_entries", "store_bytes"}
	if !reflect.DeepEqual(gauges, wantGauges) {
		t.Errorf("gauges = %v, want %v", gauges, wantGauges)
	}

	_, m := harness.RunMetered(context.Background(), corpus.Generate(corpus.Params{Seed: 1, CFiles: 2, GenHeaders: 2}),
		harness.RunConfig{Parser: fmlr.OptAll, Jobs: 1})
	text := m.String()
	for name := range m.Map() {
		if !strings.Contains(text, " "+name+"=") {
			t.Errorf("harness text block lacks %s", name)
		}
	}
}
