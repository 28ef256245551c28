package preprocessor

import (
	"fmt"
	"maps"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cond"
	"repro/internal/hcache"
	"repro/internal/stats"
	"repro/internal/token"
)

// ppWith preprocesses main.c with an optional shared header cache and an
// optional include-path override, returning the unit and its space.
func ppWith(t *testing.T, files map[string]string, hc *hcache.Cache, mode cond.Mode, paths []string) (*Unit, *cond.Space) {
	t.Helper()
	if paths == nil {
		paths = []string{"include"}
	}
	s := cond.NewSpace(mode)
	p := New(Options{Space: s, FS: MapFS(files), IncludePaths: paths, HeaderCache: hc})
	u, err := p.Preprocess("main.c")
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	return u, s
}

// equalTok compares the full observable token identity, position included:
// the differential oracle demands byte-identical streams.
func equalTok(a, b *token.Token) string {
	if a.Kind != b.Kind || a.Text != b.Text {
		return fmt.Sprintf("token %v vs %v", a, b)
	}
	if a.File != b.File || a.Line != b.Line || a.Col != b.Col {
		return fmt.Sprintf("position %s vs %s for %v", a.Pos(), b.Pos(), a)
	}
	if a.HasSpace != b.HasSpace || a.Expanded != b.Expanded {
		return fmt.Sprintf("flags differ for %v (space %v/%v expanded %v/%v)",
			a, a.HasSpace, b.HasSpace, a.Expanded, b.Expanded)
	}
	return ""
}

// equalForest structurally compares two segment forests from (possibly)
// different spaces. Presence conditions are compared semantically by
// exporting both sides into one comparison space.
func equalForest(t *testing.T, sa *cond.Space, a []Segment, sb *cond.Space, b []Segment, label string) {
	t.Helper()
	cmpSpace := cond.NewSpace(cond.ModeBDD)
	ia, ib := cmpSpace.NewImporter(), cmpSpace.NewImporter()
	ea, eb := sa.NewExporter(), sb.NewExporter()
	var walk func(a, b []Segment, path string)
	walk = func(a, b []Segment, path string) {
		if len(a) != len(b) {
			t.Fatalf("%s%s: %d vs %d segments", label, path, len(a), len(b))
		}
		for i := range a {
			at, bt := a[i], b[i]
			if at.IsToken() != bt.IsToken() {
				t.Fatalf("%s%s[%d]: token vs conditional", label, path, i)
			}
			if at.IsToken() {
				if d := equalTok(at.Tok, bt.Tok); d != "" {
					t.Fatalf("%s%s[%d]: %s", label, path, i, d)
				}
				continue
			}
			if len(at.Cond.Branches) != len(bt.Cond.Branches) {
				t.Fatalf("%s%s[%d]: %d vs %d branches", label, path, i,
					len(at.Cond.Branches), len(bt.Cond.Branches))
			}
			for j := range at.Cond.Branches {
				ca := ia.Import(ea.Export(at.Cond.Branches[j].Cond))
				cb := ib.Import(eb.Export(bt.Cond.Branches[j].Cond))
				if !cmpSpace.Equal(ca, cb) {
					t.Fatalf("%s%s[%d] branch %d: conditions differ: %s vs %s",
						label, path, i, j, cmpSpace.String(ca), cmpSpace.String(cb))
				}
				walk(at.Cond.Branches[j].Segs, bt.Cond.Branches[j].Segs,
					fmt.Sprintf("%s[%d].b%d", path, i, j))
			}
		}
	}
	walk(a, b, "")
}

// equalUnits compares forests, diagnostics, and the deterministic stats.
func equalUnits(t *testing.T, sa *cond.Space, a *Unit, sb *cond.Space, b *Unit, label string) {
	t.Helper()
	equalForest(t, sa, a.EnsureSegments(), sb, b.EnsureSegments(), label)
	if len(a.Diags) != len(b.Diags) {
		t.Fatalf("%s: %d vs %d diagnostics", label, len(a.Diags), len(b.Diags))
	}
	for i := range a.Diags {
		if a.Diags[i].String() != b.Diags[i].String() {
			t.Fatalf("%s: diag %d: %s vs %s", label, i, a.Diags[i], b.Diags[i])
		}
	}
	as, bs := a.Stats, b.Stats
	as.LexTime, bs.LexTime = 0, 0 // wall-clock, legitimately differs
	if as != bs {
		t.Fatalf("%s: stats differ:\n%+v\n%+v", label, as, bs)
	}
}

// cacheScenarios are the seeded property cases: each include-graph shape the
// fuzzer also explores, with the second cached run checked against an
// uncached reference.
var cacheScenarios = []struct {
	name  string
	files map[string]string
	paths []string
}{
	{"guarded header", map[string]string{
		"main.c":           "#include <config.h>\n#include <config.h>\nint x = LIMIT;\n",
		"include/config.h": "#ifndef CONFIG_H\n#define CONFIG_H\n#define LIMIT 42\n#endif\n",
	}, nil},
	{"diamond includes", map[string]string{
		"main.c":         "#include <a.h>\n#include <b.h>\nint v = BOTH;\n",
		"include/a.h":    "#ifndef A_H\n#define A_H\n#include <base.h>\n#define FROM_A 1\n#endif\n",
		"include/b.h":    "#ifndef B_H\n#define B_H\n#include <base.h>\n#define BOTH (BASE + FROM_A)\n#endif\n",
		"include/base.h": "#ifndef BASE_H\n#define BASE_H\n#define BASE 10\n#endif\n",
	}, nil},
	{"include_next chain", map[string]string{
		"main.c":          "#include <wrap.h>\nint n = DEPTH;\n",
		"include/wrap.h":  "#ifndef WRAP_H\n#define WRAP_H\n#include_next <wrap.h>\n#define DEPTH (INNER + 1)\n#endif\n",
		"include2/wrap.h": "#define INNER 1\n",
	}, []string{"include", "include2"}},
	{"undef between includes", map[string]string{
		"main.c":      "#include <x.h>\n#undef MODE\n#define MODE 2\n#include <x.h>\nint m = VAL;\n",
		"include/x.h": "#ifdef MODE\n#define VAL MODE\n#else\n#define VAL 0\n#define MODE 1\n#endif\n",
	}, nil},
	{"conditional include", map[string]string{
		"main.c":        "#ifdef CONFIG_NET\n#include <net.h>\n#endif\nint done;\n",
		"include/net.h": "#define NET 1\nint net_tbl[NET];\n",
	}, nil},
	{"computed include", map[string]string{
		"main.c":        "#ifdef CONFIG_ALT\n#define HDR <alt.h>\n#else\n#define HDR <std.h>\n#endif\n#include HDR\nint z = PICK;\n",
		"include/alt.h": "#define PICK 1\n",
		"include/std.h": "#define PICK 2\n",
	}, nil},
	{"function-like macros from header", map[string]string{
		"main.c":      "#include <m.h>\nint r = MAX(1, ADD(2, 3));\n",
		"include/m.h": "#ifndef M_H\n#define M_H\n#define ADD(a, b) ((a) + (b))\n#define MAX(a, b) ((a) > (b) ? (a) : (b))\n#endif\n",
	}, nil},
	{"header with conditional API", map[string]string{
		"main.c":        "#include <api.h>\nint s = SIZE;\n",
		"include/api.h": "#ifndef API_H\n#define API_H\n#ifdef CONFIG_64BIT\n#define SIZE 8\n#else\n#define SIZE 4\n#endif\n#endif\n",
	}, nil},
	{"counter in header", map[string]string{
		"main.c":      "#include <c.h>\n#include <c.h>\nint t = __COUNTER__;\n",
		"include/c.h": "int tag[__COUNTER__ + 1];\n",
	}, nil},
}

func TestHeaderCacheDifferentialScenarios(t *testing.T) {
	for _, mode := range []cond.Mode{cond.ModeBDD, cond.ModeSAT} {
		for _, sc := range cacheScenarios {
			t.Run(fmt.Sprintf("%v/%s", mode, sc.name), func(t *testing.T) {
				ref, refSpace := ppWith(t, sc.files, nil, mode, sc.paths)
				hc := hcache.New(hcache.Options{})
				// First cached run records; second replays what it can.
				ppWith(t, sc.files, hc, mode, sc.paths)
				got, gotSpace := ppWith(t, sc.files, hc, mode, sc.paths)
				equalUnits(t, refSpace, ref, gotSpace, got, sc.name)
			})
		}
	}
}

var cacheMetrics = stats.NewRegistry(hcache.Fields.Descs())

// cacheDelta is hc's counter change since before, by metric name.
func cacheDelta(hc *hcache.Cache, before hcache.Snapshot) stats.Snapshot {
	after := hc.Stats()
	return cacheMetrics.Snapshot(hcache.Fields.Values(&after)).Sub(cacheMetrics.Snapshot(hcache.Fields.Values(&before)))
}

func TestHeaderCacheHitsOnSecondUnit(t *testing.T) {
	files := map[string]string{
		"main.c":           "#include <config.h>\nint x = LIMIT;\n",
		"include/config.h": "#ifndef CONFIG_H\n#define CONFIG_H\n#define LIMIT 42\n#endif\n",
	}
	hc := hcache.New(hcache.Options{})
	ppWith(t, files, hc, cond.ModeBDD, nil)
	before := hc.Stats()
	if before.HeaderHits != 0 || before.HeaderMisses == 0 {
		t.Fatalf("first unit should only miss: %+v", before)
	}
	ppWith(t, files, hc, cond.ModeBDD, nil)
	d := cacheDelta(hc, before)
	if d.Get("hcache_header_hits") != 1 || d.Get("hcache_header_misses") != 0 {
		t.Errorf("second unit: hits=%d misses=%d, want 1 hit 0 misses", d.Get("hcache_header_hits"), d.Get("hcache_header_misses"))
	}
	if d.Get("hcache_lex_hits") != 1 {
		t.Errorf("second unit should hit Level 1 for main.c: lex hits=%d", d.Get("hcache_lex_hits"))
	}
	if d.Get("hcache_bytes_saved") != int64(len(files["include/config.h"])) {
		t.Errorf("BytesSaved=%d, want header size %d", d.Get("hcache_bytes_saved"), len(files["include/config.h"]))
	}
}

// TestHeaderCacheFingerprint pins the interaction-set semantics: hits are
// taken exactly when the macro state the header observes matches.
func TestHeaderCacheFingerprint(t *testing.T) {
	header := "#ifndef X_H\n#define X_H\n#ifdef TUNE\nint tuned = TUNE;\n#else\nint plain;\n#endif\n#endif\n"
	mk := func(prefix string) map[string]string {
		return map[string]string{
			"main.c":      prefix + "#include <x.h>\nint end;\n",
			"include/x.h": header,
		}
	}
	t.Run("unrelated macro still hits", func(t *testing.T) {
		hc := hcache.New(hcache.Options{})
		ppWith(t, mk(""), hc, cond.ModeBDD, nil)
		before := hc.Stats()
		// UNRELATED is not in x.h's interaction set: the fingerprint matches.
		ppWith(t, mk("#define UNRELATED 7\n"), hc, cond.ModeBDD, nil)
		d := cacheDelta(hc, before)
		if d.Get("hcache_header_hits") != 1 {
			t.Errorf("hits=%d, want 1 (UNRELATED must not affect the fingerprint)", d.Get("hcache_header_hits"))
		}
	})
	t.Run("observed macro forces miss", func(t *testing.T) {
		hc := hcache.New(hcache.Options{})
		ppWith(t, mk(""), hc, cond.ModeBDD, nil)
		before := hc.Stats()
		// TUNE is read by x.h: defining it must miss and re-record.
		ppWith(t, mk("#define TUNE 9\n"), hc, cond.ModeBDD, nil)
		d := cacheDelta(hc, before)
		if d.Get("hcache_header_hits") != 0 || d.Get("hcache_header_misses") != 1 {
			t.Errorf("hits=%d misses=%d, want a miss (TUNE is observed)", d.Get("hcache_header_hits"), d.Get("hcache_header_misses"))
		}
		// Both macro states now have entries: each repeats as a hit.
		mid := hc.Stats()
		ppWith(t, mk(""), hc, cond.ModeBDD, nil)
		ppWith(t, mk("#define TUNE 9\n"), hc, cond.ModeBDD, nil)
		d = cacheDelta(hc, mid)
		if d.Get("hcache_header_hits") != 2 || d.Get("hcache_header_misses") != 0 {
			t.Errorf("replays: hits=%d misses=%d, want 2 hits", d.Get("hcache_header_hits"), d.Get("hcache_header_misses"))
		}
	})
	t.Run("guard already defined degenerates to skip", func(t *testing.T) {
		hc := hcache.New(hcache.Options{})
		files := mk("#define X_H 1\n")
		ref, refSpace := ppWith(t, files, nil, cond.ModeBDD, nil)
		ppWith(t, files, hc, cond.ModeBDD, nil)
		got, gotSpace := ppWith(t, files, hc, cond.ModeBDD, nil)
		equalUnits(t, refSpace, ref, gotSpace, got, "pre-defined guard")
	})
}

func TestHeaderCacheInvalidationOnMutation(t *testing.T) {
	v1 := map[string]string{
		"main.c":      "#include <x.h>\nint a = V;\n",
		"include/x.h": "#ifndef X_H\n#define X_H\n#define V 1\n#endif\n",
	}
	v2 := map[string]string{
		"main.c":      v1["main.c"],
		"include/x.h": "#ifndef X_H\n#define X_H\n#define V 2\n#endif\n",
	}
	hc := hcache.New(hcache.Options{})
	ppWith(t, v1, hc, cond.ModeBDD, nil)
	before := hc.Stats()
	// Mutated header: the content hash changes, so the stale entry is
	// unreachable and the run must miss and produce the new output.
	u, s := ppWith(t, v2, hc, cond.ModeBDD, nil)
	d := cacheDelta(hc, before)
	if d.Get("hcache_header_hits") != 0 || d.Get("hcache_header_misses") != 1 {
		t.Errorf("mutated header: hits=%d misses=%d, want pure miss", d.Get("hcache_header_hits"), d.Get("hcache_header_misses"))
	}
	if got := textOf(s, u.EnsureSegments(), nil); !strings.Contains(got, "2") {
		t.Errorf("stale value replayed: %q", got)
	}
	ref, refSpace := ppWith(t, v2, nil, cond.ModeBDD, nil)
	equalUnits(t, refSpace, ref, s, u, "post-mutation")
}

func TestHeaderCacheDepInvalidationNested(t *testing.T) {
	// outer.h's cached entry depends on inner.h's content: mutating only
	// inner.h must invalidate outer.h's entry even though outer.h's own
	// hash (and so its cache key) is unchanged.
	mk := func(innerVal string) map[string]string {
		return map[string]string{
			"main.c":          "#include <outer.h>\nint a = INNER;\n",
			"include/outer.h": "#ifndef OUTER_H\n#define OUTER_H\n#include <inner.h>\n#endif\n",
			"include/inner.h": "#define INNER " + innerVal + "\n",
		}
	}
	hc := hcache.New(hcache.Options{})
	ppWith(t, mk("1"), hc, cond.ModeBDD, nil)
	u, s := ppWith(t, mk("2"), hc, cond.ModeBDD, nil)
	if got := textOf(s, u.EnsureSegments(), nil); !strings.Contains(got, "2") {
		t.Errorf("stale nested content replayed: %q", got)
	}
}

func TestHeaderCacheProbeInvalidation(t *testing.T) {
	// x.h resolved from the second include directory while the first lacked
	// it; when the file appears earlier on the path, the recorded probe
	// fails and resolution must find the new file.
	without := map[string]string{
		"main.c":       "#include <x.h>\nint a = WHICH;\n",
		"include2/x.h": "#define WHICH 2\n",
	}
	with := map[string]string{
		"main.c":       without["main.c"],
		"include/x.h":  "#define WHICH 1\n",
		"include2/x.h": without["include2/x.h"],
	}
	paths := []string{"include", "include2"}
	hc := hcache.New(hcache.Options{})
	ppWith(t, without, hc, cond.ModeBDD, paths)
	u, s := ppWith(t, with, hc, cond.ModeBDD, paths)
	if got := textOf(s, u.EnsureSegments(), nil); !strings.Contains(got, "1") {
		t.Errorf("shadowed header not picked up: %q", got)
	}
}

func TestHeaderCacheEvictionBoundEndToEnd(t *testing.T) {
	files := map[string]string{"main.c": ""}
	var incs strings.Builder
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("h%d.h", i)
		files["include/"+name] = fmt.Sprintf("#define H%d %d\nint h%d = H%d;\n", i, i, i, i)
		fmt.Fprintf(&incs, "#include <%s>\n", name)
	}
	files["main.c"] = incs.String()
	hc := hcache.New(hcache.Options{MaxHeaderEntries: 3, MaxLexEntries: 3})
	ppWith(t, files, hc, cond.ModeBDD, nil)
	ppWith(t, files, hc, cond.ModeBDD, nil)
	s := hc.Stats()
	if s.HeaderEntries > 3 || s.LexEntries > 3 {
		t.Errorf("bounds exceeded: %+v", s)
	}
	if s.Evictions == 0 {
		t.Error("expected evictions with 8 headers and bound 3")
	}
	// Correctness is unaffected by thrashing.
	ref, refSpace := ppWith(t, files, nil, cond.ModeBDD, nil)
	got, gotSpace := ppWith(t, files, hc, cond.ModeBDD, nil)
	equalUnits(t, refSpace, ref, gotSpace, got, "thrashing cache")
}

// TestResolveIncludeNextSelf is the fuzzer-surfaced regression: with the
// including file's own directory duplicated on the include path,
// #include_next used to resolve back to the current file and recurse to the
// include-depth limit.
func TestResolveIncludeNextSelf(t *testing.T) {
	files := map[string]string{
		"main.c":      "#include <x.h>\nint done;\n",
		"include/x.h": "#include_next <x.h>\nint x;\n",
	}
	s := cond.NewSpace(cond.ModeBDD)
	p := New(Options{Space: s, FS: MapFS(files), IncludePaths: []string{"include", "include"}})
	u, err := p.Preprocess("main.c")
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	var msgs []string
	for _, d := range u.Diags {
		msgs = append(msgs, d.Msg)
	}
	if len(u.Diags) != 1 || !strings.Contains(msgs[0], "include not found") {
		t.Fatalf("want a single not-found diagnostic, got %v", msgs)
	}
	if u.Stats.MaxCondDepth != 0 && u.Stats.Includes > 2 {
		t.Errorf("self-inclusion recursion: %d includes", u.Stats.Includes)
	}
}

// TestResolveIncludeNextChain guards the intended #include_next behavior.
func TestResolveIncludeNextChain(t *testing.T) {
	files := map[string]string{
		"main.c":       "#include <x.h>\nint v = BOTH;\n",
		"include/x.h":  "#define WRAP 1\n#include_next <x.h>\n#define BOTH (WRAP + REAL)\n",
		"include2/x.h": "#define REAL 2\n",
	}
	s := cond.NewSpace(cond.ModeBDD)
	p := New(Options{Space: s, FS: MapFS(files), IncludePaths: []string{"include", "include2"}})
	u, err := p.Preprocess("main.c")
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	for _, d := range u.Diags {
		t.Errorf("unexpected diagnostic: %s", d)
	}
	if got := flatText(t, u.EnsureSegments()); got != "int v = ( 1 + 2 ) ;" {
		t.Errorf("got %q", got)
	}
}

// TestResolveIncludeQuotedFromHeaderDir guards quoted-include resolution
// relative to the *including header's* directory (not the unit's), which the
// cache records per original path.
func TestResolveIncludeQuotedFromHeaderDir(t *testing.T) {
	files := map[string]string{
		"main.c":              "#include <sub/outer.h>\nint v = LOCAL;\n",
		"include/sub/outer.h": "#include \"local.h\"\n",
		"include/sub/local.h": "#define LOCAL 5\n",
	}
	hc := hcache.New(hcache.Options{})
	ref, refSpace := ppWith(t, files, nil, cond.ModeBDD, nil)
	ppWith(t, files, hc, cond.ModeBDD, nil)
	got, gotSpace := ppWith(t, files, hc, cond.ModeBDD, nil)
	equalUnits(t, refSpace, ref, gotSpace, got, "quoted from header dir")
	if flatText(t, got.EnsureSegments()) != "int v = 5 ;" {
		t.Errorf("got %q", flatText(t, got.EnsureSegments()))
	}
}

// TestHeaderCacheCounterPoisoned pins that __COUNTER__-bearing headers are
// never cached: the counter is unit-global state.
func TestHeaderCacheCounterPoisoned(t *testing.T) {
	files := map[string]string{
		"main.c":      "#include <c.h>\n#include <c.h>\nint t = __COUNTER__;\n",
		"include/c.h": "int tag = __COUNTER__;\n",
	}
	hc := hcache.New(hcache.Options{})
	ppWith(t, files, hc, cond.ModeBDD, nil)
	before := hc.Stats()
	ppWith(t, files, hc, cond.ModeBDD, nil)
	d := cacheDelta(hc, before)
	if d.Get("hcache_header_hits") != 0 {
		t.Errorf("__COUNTER__ header replayed: %d hits", d.Get("hcache_header_hits"))
	}
}

// TestUnitReadSet pins Unit.Deps/Probes: every file the unit read and every
// include-path probe, sorted and deduplicated, the same whether the headers
// were processed or replayed, kept for poisoned recordings and
// conditional includes, and checkable with hcache.Memo.Holds.
func TestUnitReadSet(t *testing.T) {
	files := map[string]string{
		"main.c":           "#include <outer.h>\n#include <outer.h>\n#include <count.h>\n#ifdef A\n#include <cond.h>\n#endif\nint a = INNER;\n",
		"include/outer.h":  "#ifndef OUTER_H\n#define OUTER_H\n#include <inner.h>\n#endif\n",
		"include2/inner.h": "#define INNER 1\n",
		"include/count.h":  "int k = __COUNTER__;\n",
		"include2/cond.h":  "int c;\n",
	}
	paths := []string{"include", "include2"}
	hash := func(p string) string { return hcache.Hash([]byte(files[p])) }
	wantDeps := []hcache.Dep{
		{Path: "include/count.h", Hash: hash("include/count.h")},
		{Path: "include/outer.h", Hash: hash("include/outer.h")},
		{Path: "include2/cond.h", Hash: hash("include2/cond.h")},
		{Path: "include2/inner.h", Hash: hash("include2/inner.h")},
		{Path: "main.c", Hash: hash("main.c")},
	}
	wantProbes := []hcache.Probe{
		{Path: "include/cond.h", Exists: false},
		{Path: "include/count.h", Exists: true},
		{Path: "include/inner.h", Exists: false},
		{Path: "include/outer.h", Exists: true},
		{Path: "include2/cond.h", Exists: true},
		{Path: "include2/inner.h", Exists: true},
	}
	hc := hcache.New(hcache.Options{})
	for _, run := range []string{"recorded", "replayed"} {
		before := hc.Stats()
		u, _ := ppWith(t, files, hc, cond.ModeBDD, paths)
		if hits := hc.Stats().HeaderHits - before.HeaderHits; (hits > 0) != (run == "replayed") {
			t.Fatalf("%s: %d header hits", run, hits)
		}
		if !reflect.DeepEqual(u.Deps, wantDeps) {
			t.Errorf("%s: deps = %+v, want %+v", run, u.Deps, wantDeps)
		}
		if !reflect.DeepEqual(u.Probes, wantProbes) {
			t.Errorf("%s: probes = %+v, want %+v", run, u.Probes, wantProbes)
		}
		if !hcache.NewMemo(MapFS(files)).Holds(u.Deps, u.Probes) {
			t.Errorf("%s: read set does not hold on the unchanged files", run)
		}
	}
	u, _ := ppWith(t, files, nil, cond.ModeBDD, paths)
	if u.Deps != nil || u.Probes != nil {
		t.Errorf("without a header cache: deps %v, probes %v; want none", u.Deps, u.Probes)
	}

	edited := maps.Clone(files)
	edited["include2/inner.h"] = "#define INNER 2\n"
	shadowed := maps.Clone(files)
	shadowed["include/cond.h"] = "int d;\n"
	u, _ = ppWith(t, files, hc, cond.ModeBDD, paths)
	for name, fs := range map[string]map[string]string{"edited": edited, "shadowed": shadowed} {
		if hcache.NewMemo(MapFS(fs)).Holds(u.Deps, u.Probes) {
			t.Errorf("%s: read set still holds", name)
		}
	}
}
