package daemon

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/link"
	"repro/internal/store"
)

// writeLinkTree populates a daemon root with a two-unit corpus seeding all
// three link-finding families (the same shape as examples/link).
func writeLinkTree(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	files := map[string]string{
		"proto.h": `#ifndef PROTO_H
#define PROTO_H
extern int buffer_size;
int checksum(int v);
#endif
`,
		"a.c": `#include "proto.h"
int init_table(void) { return 0; }
int process(int v) {
  log_event();
  return checksum(v) + buffer_size;
}
`,
		"b.c": `#ifdef CONFIG_LARGE_BUFFERS
long buffer_size = 4096;
#else
int buffer_size = 512;
#endif
#ifdef CONFIG_LOGGING
void log_event(void) {}
#endif
#ifdef CONFIG_FASTBOOT
int init_table(void) { return 1; }
#endif
int checksum(int v) { return v ^ buffer_size; }
`,
	}
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(root, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func linkReq() LinkRequest {
	return LinkRequest{
		Files:        []string{"a.c", "b.c"},
		IncludePaths: []string{"."},
		Mode:         "bdd",
	}
}

// linkInProcess mirrors cmd/clint's in-process -link path over the same
// tree: per-unit extraction, then one corpus-wide join.
func linkInProcess(t *testing.T, root string, files []string) []LinkFinding {
	t.Helper()
	facts := make([]*link.Facts, 0, len(files))
	for _, file := range files {
		tool := core.New(core.Config{FS: rootFS{root}, IncludePaths: []string{"."}})
		res, err := tool.ParseFile(file)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		facts = append(facts, analysis.ExtractLinkFacts(&analysis.Unit{
			File:  file,
			Space: tool.Space(),
			AST:   res.AST,
			PP:    res.Unit,
		}))
	}
	r := link.Link(facts, nil)
	out := make([]LinkFinding, len(r.Findings))
	for i, f := range r.Findings {
		out[i] = FromLink(f)
	}
	return out
}

func TestLinkDifferential(t *testing.T) {
	root := writeLinkTree(t)
	c := startServer(t, NewServer(Config{Root: root}))

	req := linkReq()
	req.Jobs = 1
	r1, err := c.Link(&req)
	if err != nil {
		t.Fatal(err)
	}
	req8 := linkReq()
	req8.Jobs = 8
	req8.ParseWorkers = 4
	r8, err := c.Link(&req8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r8) {
		t.Errorf("link responses differ between jobs=1 and jobs=8/parse-workers=4:\n%+v\n%+v", r1, r8)
	}

	fams := map[string]bool{}
	for _, f := range r1.Findings {
		fams[f.Family] = true
		if !f.WitnessVerified {
			t.Errorf("unverified witness: %+v", f)
		}
	}
	for _, want := range []string{"undef-ref", "multidef", "type-mismatch"} {
		if !fams[want] {
			t.Errorf("family %s missing from findings: %+v", want, r1.Findings)
		}
	}
	if r1.Units != 2 || len(r1.Failed) != 0 {
		t.Errorf("units = %d, failed = %+v; want 2 clean units", r1.Units, r1.Failed)
	}

	// Compare against a direct in-process run through the wire encoding (the
	// canonical byte-identity claim clients rely on).
	got, err := json.Marshal(r1.Findings)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(linkInProcess(t, root, req.Files))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("daemon findings differ from in-process link:\n%s\n%s", got, want)
	}
}

// TestLintLinkOneRequest: a /v1/lint request with Link parses each unit
// once and returns the same join /v1/link does, failed units excluded,
// without a /v1/link request; without Link it joins nothing.
func TestLintLinkOneRequest(t *testing.T) {
	c := startServer(t, NewServer(Config{Root: writeLinkTree(t)}))
	files := []string{"a.c", "b.c", "missing.c"}
	lint, err := c.Lint(&LintRequest{Files: files, IncludePaths: []string{"."}, Mode: "bdd", Link: true})
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if n := st.Counters; n["requests_link"] != 0 || n["units_total"] != 3 || n["harness_units"] != 3 || n["link_units"] != 2 {
		t.Errorf("counters after one lint+link request: requests_link %d units_total %d harness_units %d link_units %d, want 0, 3, 3, 2",
			n["requests_link"], n["units_total"], n["harness_units"], n["link_units"])
	}
	if !lint.Units[2].Failed {
		t.Errorf("missing.c: %+v, want a failed unit", lint.Units[2])
	}
	req := linkReq()
	want, err := c.Link(&req)
	if err != nil {
		t.Fatal(err)
	}
	want.FactsHits, want.FactsMisses = 0, 0
	if got := lint.Link; got == nil || !reflect.DeepEqual(*got, *want) {
		t.Errorf("lint join:\n%+v\nwant the /v1/link join:\n%+v", got, want)
	}

	plain, err := c.Lint(&LintRequest{Files: files, IncludePaths: []string{"."}, Mode: "bdd"})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Link != nil {
		t.Errorf("lint without Link joined: %+v", plain.Link)
	}
}

func TestLinkFailedUnits(t *testing.T) {
	root := writeLinkTree(t)
	c := startServer(t, NewServer(Config{Root: root}))

	// The front end is error-tolerant (#error and stray directives still
	// yield an AST), so the failed-unit path is an unreadable file.
	req := linkReq()
	req.Files = []string{"a.c", "b.c", "missing.c"}
	resp, err := c.Link(&req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Units != 2 {
		t.Errorf("units = %d, want 2 (failed units must not join)", resp.Units)
	}
	if len(resp.Failed) != 1 || resp.Failed[0].File != "missing.c" || resp.Failed[0].Errors == "" {
		t.Fatalf("failed = %+v, want missing.c with error text", resp.Failed)
	}

	// The good units still link: same findings as the clean two-unit run.
	clean, err := c.Link(&LinkRequest{Files: []string{"a.c", "b.c"}, IncludePaths: []string{"."}, Mode: "bdd"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resp.Findings, clean.Findings) {
		t.Errorf("findings changed when failed units joined the request:\n%+v\n%+v", resp.Findings, clean.Findings)
	}
}

func TestLinkFactsAcrossRestart(t *testing.T) {
	root := writeLinkTree(t)
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := startServer(t, NewServer(Config{Root: root, Store: st}))
	req := linkReq()

	cold, err := c.Link(&req)
	if err != nil {
		t.Fatal(err)
	}
	if cold.FactsHits != 0 || cold.FactsMisses != 2 {
		t.Fatalf("cold facts: %d hits, %d misses", cold.FactsHits, cold.FactsMisses)
	}

	// Same server, second request: both units served from persisted facts,
	// findings byte-identical.
	warm, err := c.Link(&req)
	if err != nil {
		t.Fatal(err)
	}
	if warm.FactsHits != 2 || warm.FactsMisses != 0 {
		t.Fatalf("warm facts: %d hits, %d misses", warm.FactsHits, warm.FactsMisses)
	}
	if !reflect.DeepEqual(cold.Findings, warm.Findings) {
		t.Error("facts-served findings differ from computed findings")
	}

	// Restarted daemon over the same store directory: facts survive the
	// process and still produce identical findings.
	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c2 := startServer(t, NewServer(Config{Root: root, Store: st2}))
	restart, err := c2.Link(&req)
	if err != nil {
		t.Fatal(err)
	}
	if restart.FactsHits != 2 || restart.FactsMisses != 0 {
		t.Fatalf("restart facts: %d hits, %d misses", restart.FactsHits, restart.FactsMisses)
	}
	if !reflect.DeepEqual(cold.Findings, restart.Findings) {
		t.Error("findings served across a restart differ from the original run")
	}

	// NoFacts bypasses the cache entirely but changes nothing observable.
	nofacts := linkReq()
	nofacts.NoFacts = true
	r, err := c2.Link(&nofacts)
	if err != nil {
		t.Fatal(err)
	}
	if r.FactsHits != 0 {
		t.Errorf("no-facts request hit the cache: %d hits", r.FactsHits)
	}
	if !reflect.DeepEqual(cold.Findings, r.Findings) {
		t.Error("no-facts findings differ from cached findings")
	}

	// Editing a root file invalidates that unit's facts (content-hashed key)
	// while the untouched unit still hits.
	a := filepath.Join(root, "a.c")
	data, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(a, append(data, []byte("/* touched */\n")...), 0o644); err != nil {
		t.Fatal(err)
	}
	edited, err := c2.Link(&req)
	if err != nil {
		t.Fatal(err)
	}
	if edited.FactsHits != 1 || edited.FactsMisses != 1 {
		t.Errorf("after edit: %d hits, %d misses; want 1/1", edited.FactsHits, edited.FactsMisses)
	}

	// A different fingerprint (new defines) must not reuse stale facts.
	defreq := linkReq()
	defreq.Defines = map[string]string{"CONFIG_LOGGING": "1"}
	d, err := c2.Link(&defreq)
	if err != nil {
		t.Fatal(err)
	}
	if d.FactsHits != 0 {
		t.Errorf("facts reused across a defines change: %d hits", d.FactsHits)
	}
	for _, f := range d.Findings {
		if f.Family == "undef-ref" && f.Symbol == "log_event" {
			t.Errorf("log_event still undefined with CONFIG_LOGGING pinned: %+v", f)
		}
	}
}

// TestLinkFactsKeyUnambiguous pins the persisted link-fact key: two
// configurations whose old comma-joined encodings coincide must not share
// facts, while spellings of one configuration (an omitted mode vs "bdd")
// must.
func TestLinkFactsKeyUnambiguous(t *testing.T) {
	root := writeLinkTree(t)
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := startServer(t, NewServer(Config{Root: root, Store: st}))
	link := func(mut func(*LinkRequest)) *LinkResponse {
		t.Helper()
		req := linkReq()
		mut(&req)
		resp, err := c.Link(&req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	for _, pair := range []struct {
		name        string
		first, then func(*LinkRequest)
	}{
		{"defines",
			func(r *LinkRequest) { r.Defines = map[string]string{"A": "1,B=2"} },
			func(r *LinkRequest) { r.Defines = map[string]string{"A": "1", "B": "2"} }},
		{"include paths",
			func(r *LinkRequest) { r.IncludePaths = []string{".", "x,y"} },
			func(r *LinkRequest) { r.IncludePaths = []string{".", "x", "y"} }},
	} {
		if cold := link(pair.first); cold.FactsMisses != 2 || len(cold.Failed) != 0 {
			t.Fatalf("%s: first request: %d misses, failed %+v", pair.name, cold.FactsMisses, cold.Failed)
		}
		if other := link(pair.then); other.FactsHits != 0 {
			t.Errorf("%s: a different configuration reused %d units' facts", pair.name, other.FactsHits)
		}
	}

	link(func(r *LinkRequest) { r.Mode = "" })
	if bdd := link(func(r *LinkRequest) { r.Mode = "bdd" }); bdd.FactsHits != 2 {
		t.Errorf(`mode "" and "bdd" keyed apart: %d hits, want 2`, bdd.FactsHits)
	}
}
