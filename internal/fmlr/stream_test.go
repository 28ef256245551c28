package fmlr

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cgrammar"
	"repro/internal/cond"
	"repro/internal/corpus"
	"repro/internal/hcache"
	"repro/internal/preprocessor"
)

// This file is the differential oracle for the stream-fused token pipeline:
// the sequential reference parse (Engine.Parse over the unit's segment
// forest, EnsureSegments) is ground truth, and the streaming parse
// (ParseUnit: chunk runs feeding the engine's cursor fast path) must
// reproduce it byte for byte — AST with rendered presence conditions, diagnostics,
// kill flag, and every pipeline-independent statistic — at every worker
// count and with the header cache on or off. The multi-worker arm drives the
// region-parallel strategy directly (checkRegionArm), since ParseUnit keeps
// units below minParallelTokens sequential. Run under -race these tests
// double as the concurrency check for streamed region parses.

// preprocessChunked preprocesses main.c and fails the test on a hard
// preprocessing error.
func preprocessChunked(t *testing.T, files map[string]string) (*preprocessor.Unit, *cond.Space) {
	t.Helper()
	s := cond.NewSpace(cond.ModeBDD)
	p := preprocessor.New(preprocessor.Options{
		Space: s,
		FS:    preprocessor.MapFS(files),
	})
	u, err := p.Preprocess("main.c")
	if err != nil {
		t.Fatalf("preprocess: %v", err)
	}
	return u, s
}

// parseChunked preprocesses and parses through ParseUnit.
func parseChunked(t *testing.T, files map[string]string, opts Options) (*Result, *cond.Space) {
	t.Helper()
	u, s := preprocessChunked(t, files)
	eng := New(s, cgrammar.MustLoad(), opts)
	return eng.ParseUnit(u), s
}

// diagMsgs projects the space-independent part of parse diagnostics.
func diagMsgs(diags []Diagnostic) []string {
	out := make([]string, len(diags))
	for i, d := range diags {
		out[i] = d.Msg
	}
	return out
}

// checkStreamEquiv asserts the streaming result is byte-identical to the
// reference ground truth, and that the streaming flow counters are
// internally consistent (the split sums to the token total).
func checkStreamEquiv(t *testing.T, label string, sa *cond.Space, want *Result, sb *cond.Space, got *Result) {
	t.Helper()
	if !sameAST(sa, want, sb, got) {
		t.Fatalf("%s: AST diverges from reference parse", label)
	}
	if got.Killed != want.Killed {
		t.Fatalf("%s: killed diverges: %v vs %v", label, got.Killed, want.Killed)
	}
	if !reflect.DeepEqual(diagMsgs(got.Diags), diagMsgs(want.Diags)) {
		t.Fatalf("%s: diagnostics diverge:\nref: %v\nstr: %v",
			label, diagMsgs(want.Diags), diagMsgs(got.Diags))
	}
	if gs, ws := normStats(got.Stats), normStats(want.Stats); !reflect.DeepEqual(gs, ws) {
		t.Fatalf("%s: stats diverge:\nref: %+v\nstr: %+v", label, ws, gs)
	}
	if sum := got.Stats.TokensStreamed + got.Stats.TokensMaterialized; sum != got.Stats.Tokens {
		t.Fatalf("%s: flow split %d streamed + %d materialized != %d tokens",
			label, got.Stats.TokensStreamed, got.Stats.TokensMaterialized, got.Stats.Tokens)
	}
}

// checkRegionArm is the workers=4 arm of the differential: it parses u
// through the region-parallel strategy directly, past ParseUnit's size
// gate, and checks the result against the reference whenever the strategy
// accepts the split. It reports whether it did; a declined split has
// nothing to compare.
func checkRegionArm(t *testing.T, label string, sa *cond.Space, want *Result, sb *cond.Space, u *preprocessor.Unit) bool {
	t.Helper()
	got, ok := parseUnitRegions(sb, u, 4)
	if ok {
		checkStreamEquiv(t, label+" workers=4", sa, want, sb, got)
	}
	return ok
}

// TestStreamPathEngages pins that the streaming pipeline actually streams —
// chunks present, the cursor fast path consuming the bulk of the tokens on a
// run-heavy unit — so the differential tests below prove something. Tokens
// are only counted as streamed when the cursor gear shifts them straight off
// the chunk run; after a conditional episode the engine materializes the
// next chunk for the surviving subparsers, so conditional-dense units (the
// generated corpus alternates ~25-token runs with conditionals) legitimately
// stream only their boot run plus any multi-chunk stretches. The second
// subtest pins exactly that weaker property so a regression to zero still
// trips.
func TestStreamPathEngages(t *testing.T) {
	t.Run("run-heavy", func(t *testing.T) {
		// Two long unconditional stretches (several 512-token chunks each)
		// around one conditional: the cursor must stream the boot stretch,
		// fall back across the conditional, and re-engage after it.
		stretch := strings.Repeat("int pad(int a)\n{\n\treturn a + 1;\n}\n", 120)
		src := stretch + "#ifdef FEAT_A\nint mid;\n#else\nlong mid;\n#endif\n" + stretch
		files := map[string]string{"main.c": src}
		u, s := preprocessChunked(t, files)
		res := New(s, cgrammar.MustLoad(), OptAll).ParseUnit(u)
		if res.AST == nil {
			t.Fatalf("streamed parse failed: %+v", res.Diags)
		}
		if res.Stats.TokensStreamed < res.Stats.TokensMaterialized {
			t.Fatalf("fast path underused on run-heavy unit: %d streamed vs %d materialized",
				res.Stats.TokensStreamed, res.Stats.TokensMaterialized)
		}
	})
	t.Run("conditional-dense", func(t *testing.T) {
		files := map[string]string{"main.c": genUnit(1, 120)}
		u, s := preprocessChunked(t, files)
		res := New(s, cgrammar.MustLoad(), OptAll).ParseUnit(u)
		if res.AST == nil {
			t.Fatalf("streamed parse failed: %+v", res.Diags)
		}
		if res.Stats.TokensStreamed == 0 {
			t.Fatal("no tokens took the streaming fast path; coverage is vacuous")
		}
	})
}

// TestStreamOneGear pins that the cursor is the fast path's only gear:
// around one conditional with no ambiguous names, the only materialized
// tokens are the conditional's branch tokens. The lone survivor of the
// conditional episode resumes the cursor on the run token that follows it,
// so that token streams too.
func TestStreamOneGear(t *testing.T) {
	src := "int a;\nint f(void);\n#ifdef A\nint b;\n#else\nlong b;\n#endif\nint c;\nint g(void);\n"
	files := map[string]string{"main.c": src}
	u, s := preprocessChunked(t, files)
	branchTokens, conds := 0, 0
	for _, c := range u.Chunks {
		if c.Cond == nil {
			continue
		}
		conds++
		for _, b := range c.Cond.Branches {
			branchTokens += preprocessor.CountTokens(b.Segs)
		}
	}
	if conds != 1 {
		t.Fatalf("%d conditional chunks; want 1", conds)
	}
	got := New(s, cgrammar.MustLoad(), OptAll).ParseUnit(u)
	want, sa := parseSrc(t, files, OptAll)
	checkStreamEquiv(t, "one conditional", sa, want, s, got)
	if got.Stats.TokensMaterialized != branchTokens {
		t.Fatalf("%d tokens materialized; want only the conditional's %d branch tokens (%d streamed)",
			got.Stats.TokensMaterialized, branchTokens, got.Stats.TokensStreamed)
	}
	if got.Stats.StreamFallbacks != 1 {
		t.Fatalf("%d stream fallbacks; want 1, at the conditional", got.Stats.StreamFallbacks)
	}
}

// TestStreamDifferential is the oracle over generated units: streaming at
// workers 1 and 4 must match the sequential reference parse byte for byte,
// and every unit must split at 4 workers.
func TestStreamDifferential(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			files := map[string]string{"main.c": genUnit(seed, 120)}
			want, sa := parseSrc(t, files, OptAll)
			if want.AST == nil {
				t.Fatalf("reference parse failed: %+v", want.Diags)
			}
			got, sb := parseChunked(t, files, OptAll)
			checkStreamEquiv(t, "workers=1", sa, want, sb, got)
			u, sb := preprocessChunked(t, files)
			if !checkRegionArm(t, "", sa, want, sb, u) {
				t.Fatal("workers=4: the unit did not split; the parallel arm compares nothing")
			}
		})
	}
}

// TestStreamDifferentialShapes covers the shapes that stress the fast
// path's bail-outs: conditionals at the start, middle, and end of the unit
// (cursor exit and re-entry), ambiguous typedef names (classification
// bail), parse errors inside a run, and units small enough to be pure
// boot-path.
func TestStreamDifferentialShapes(t *testing.T) {
	pad := strings.Repeat("int pad(int a)\n{\n\treturn a;\n}\n", 20)
	cases := map[string]string{
		"empty":          "",
		"tiny":           "int x;\n",
		"cond-at-start":  "#ifdef A\nint a;\n#endif\n" + pad,
		"cond-at-end":    pad + "#ifdef A\nint z;\n#endif\n",
		"cond-in-middle": pad + "#ifdef A\nint m;\n#else\nlong m;\n#endif\n" + pad,
		"ambiguous-typedef": "#ifdef A\ntypedef int T;\n#else\nint T;\n#endif\n" +
			"int f(void)\n{\n\treturn sizeof(T);\n}\n" + pad,
		"conditional-typedef-use": "#ifdef A\ntypedef int ct;\n#else\ntypedef long ct;\n#endif\nct v;\n" + pad,
		"parse-error":             pad + "int bad = = 3;\n" + pad,
		"error-at-eof":            pad + "int trailing = ;\n",
		"macro-heavy":             "#define THREE(a,b,c) a + b + c\nint v = THREE(1, 2, 3);\n" + pad,
		"only-conditional":        "#ifdef A\nint a;\n#else\nint b;\n#endif\n",
		"extension-in-ifdef": "#ifdef A\n__extension__ typedef long long ll;\nstruct w { __extension__ ll v; };\n#endif\n" +
			pad + "int h(void)\n{\n#ifdef A\n\t__extension__ int x = __extension__ 1;\n#else\n\tint x = 0;\n#endif\n" +
			"\t__extension__ int y = __extension__ (long)x;\n\treturn x + y;\n}\n" + pad,
	}
	split := 0
	for name, src := range cases {
		name, src := name, src
		t.Run(name, func(t *testing.T) {
			files := map[string]string{"main.c": src}
			want, sa := parseSrc(t, files, OptAll)
			got, sb := parseChunked(t, files, OptAll)
			checkStreamEquiv(t, "workers=1", sa, want, sb, got)
			u, sb := preprocessChunked(t, files)
			if checkRegionArm(t, "", sa, want, sb, u) {
				split++
			}
		})
	}
	if split == 0 {
		t.Fatal("no shape split at workers=4; the parallel arm compared nothing")
	}
}

// TestStreamCorpusDifferential runs the oracle over real corpus units —
// includes, macro tables, the works — crossing worker counts with the
// header cache on and off. Cached header replays and cold preprocessing
// must both feed the streaming parser the same chunks.
func TestStreamCorpusDifferential(t *testing.T) {
	c := corpus.Generate(corpus.Params{Seed: 1, CFiles: 6, GenHeaders: 8})
	includes := []string{"include", "include/gen", "include/linux"}
	preprocess := func(t *testing.T, cf string, hc *hcache.Cache) (*preprocessor.Unit, *cond.Space) {
		t.Helper()
		s := cond.NewSpace(cond.ModeBDD)
		p := preprocessor.New(preprocessor.Options{
			Space:        s,
			FS:           c.FS,
			IncludePaths: includes,
			HeaderCache:  hc,
		})
		u, err := p.Preprocess(cf)
		if err != nil {
			t.Fatalf("%s: preprocess: %v", cf, err)
		}
		return u, s
	}
	lang := cgrammar.MustLoad()
	for _, cached := range []bool{false, true} {
		var hc *hcache.Cache
		label := "nocache"
		if cached {
			hc = hcache.New(hcache.Options{})
			label = "hcache"
		}
		t.Run(label, func(t *testing.T) {
			split := 0
			for _, cf := range c.CFiles {
				u, sa := preprocess(t, cf, hc)
				want := New(sa, lang, OptAll).Parse(u.EnsureSegments(), cf)
				su, sb := preprocess(t, cf, hc)
				got := New(sb, lang, OptAll).ParseUnit(su)
				checkStreamEquiv(t, cf+" workers=1", sa, want, sb, got)
				su, sb = preprocess(t, cf, hc)
				if checkRegionArm(t, cf, sa, want, sb, su) {
					split++
				}
			}
			if split == 0 {
				t.Fatal("no corpus unit split at workers=4; the parallel arm compared nothing")
			}
		})
	}
}

// FuzzStreamTokens fuzzes the pipeline equivalence on arbitrary source
// text: whatever the preprocessor emits, the streaming parse must equal the
// reference parse — ASTs, diagnostics, kill flag, and normalized stats.
func FuzzStreamTokens(f *testing.F) {
	f.Add("int x;\n")
	f.Add("")
	f.Add(genUnit(1, 40))
	f.Add(genUnit(5, 25))
	f.Add("#ifdef A\nint a;\n#endif\nint tail;\n")
	f.Add("int head;\n#ifdef A\nint a;\n#else\nlong a;\n#endif\n")
	f.Add("#ifdef A\ntypedef int T;\n#else\nint T;\n#endif\nint f(void)\n{\n\treturn sizeof(T);\n}\n")
	f.Add("int bad = = 1;\nint fine;\n")
	f.Add("#define P(x) (x)\nint v = P(P(2));\n")
	lang := cgrammar.MustLoad()
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<13 {
			return
		}
		files := map[string]string{"main.c": src}
		sa := cond.NewSpace(cond.ModeBDD)
		pa := preprocessor.New(preprocessor.Options{Space: sa, FS: preprocessor.MapFS(files)})
		ua, errA := pa.Preprocess("main.c")
		sb := cond.NewSpace(cond.ModeBDD)
		pb := preprocessor.New(preprocessor.Options{Space: sb, FS: preprocessor.MapFS(files)})
		ub, errB := pb.Preprocess("main.c")
		if (errA != nil) != (errB != nil) {
			t.Fatalf("preprocess error diverges: %v vs %v", errA, errB)
		}
		if errA != nil {
			return
		}
		want := New(sa, lang, OptAll).Parse(ua.EnsureSegments(), "main.c")
		// workers=1 streams through ParseUnit; workers=4 drives the
		// region-parallel strategy directly, past ParseUnit's size gate, and
		// is compared whenever it accepts the split.
		for _, w := range []int{1, 4} {
			var got *Result
			if w == 1 {
				got = New(sb, lang, OptAll).ParseUnit(ub)
			} else if res, ok := parseUnitRegions(sb, ub, w); ok {
				got = res
			} else {
				continue
			}
			if !sameAST(sa, want, sb, got) {
				t.Fatalf("workers=%d: streamed AST diverges", w)
			}
			if got.Killed != want.Killed || !reflect.DeepEqual(diagMsgs(got.Diags), diagMsgs(want.Diags)) {
				t.Fatalf("workers=%d: diags/killed diverge", w)
			}
			if gs, ws := normStats(got.Stats), normStats(want.Stats); !reflect.DeepEqual(gs, ws) {
				t.Fatalf("workers=%d: stats diverge:\nref: %+v\nstr: %+v", w, ws, gs)
			}
		}
	})
}
