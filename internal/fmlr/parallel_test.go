package fmlr

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/cgrammar"
	"repro/internal/cond"
	"repro/internal/corpus"
	"repro/internal/preprocessor"
	"repro/internal/token"
)

// This file is the differential oracle for the region-parallel parser: the
// sequential engine is ground truth, and the parallel engine must be
// byte-identical to it — rendered AST with presence conditions, diagnostics,
// and every interleaving-independent statistic — at every worker count, on a
// corpus of generated units dense with the constructs that make splitting
// hard (nested conditionals, conditional typedefs, shadowing, conditional
// function bodies). Run it under -race and the same tests double as the
// concurrency soundness check for the shared condition space.

// genUnit generates one deterministic pseudo-random translation unit (see
// corpus.GiantUnit). Every unit is valid C under every configuration.
func genUnit(seed int64, items int) string {
	return corpus.GiantUnit(seed, items)
}

// normStats strips the interleaving/pool-dependent counters, leaving only
// the ones the parallel parse must reproduce exactly. The token-flow split
// (streamed vs materialized, fallback count) is a property of the chosen
// pipeline and of where regions were cut, not of the parse — the streaming
// differential compares it zeroed, and checks Tokens (the sum) exactly.
func normStats(s Stats) Stats {
	s.SubparserAllocs = 0
	s.SubparserReuses = 0
	s.TokensStreamed = 0
	s.TokensMaterialized = 0
	s.StreamFallbacks = 0
	return s
}

// parseWith parses src with the given options through ParseUnit, the entry
// point that honors Options.ParseWorkers.
func parseWith(t *testing.T, src string, opts Options) (*Result, *cond.Space) {
	t.Helper()
	return parseChunked(t, map[string]string{"main.c": src}, opts)
}

// parseRegions drives the region-parallel strategy on src directly, past
// ParseUnit's size gate; ok reports whether it split the unit and passed
// the equivalence gate.
func parseRegions(t *testing.T, src string, workers int) (*Result, *cond.Space, bool) {
	t.Helper()
	u, s := preprocessChunked(t, map[string]string{"main.c": src})
	res, ok := parseUnitRegions(s, u, workers)
	return res, s, ok
}

// parseUnitRegions is parseRegions on an already preprocessed unit.
func parseUnitRegions(s *cond.Space, u *preprocessor.Unit, workers int) (*Result, bool) {
	opts := OptAll
	opts.ParseWorkers = workers
	return New(s, cgrammar.MustLoad(), opts).parseParallel(u.EnsureSegments(), u.Chunks, u.File)
}

// astEq is a DAG-aware structural equality check between ASTs from two
// independent parses (and hence two condition spaces): node kinds, labels,
// tokens, child structure, and the *rendered* presence-condition strings must
// all agree. The pair memo keeps it linear on shared subtrees, where a plain
// recursive walk (or StringWithConds) goes exponential.
type astEq struct {
	sa, sb *cond.Space
	memo   map[[2]*ast.Node]bool
}

func (e *astEq) eq(a, b *ast.Node) bool {
	if a == nil || b == nil {
		return a == b
	}
	key := [2]*ast.Node{a, b}
	if v, ok := e.memo[key]; ok {
		return v
	}
	// Optimistically assume equal to terminate on cycles (the AST is acyclic,
	// so this only short-circuits repeated shared pairs).
	e.memo[key] = true
	ok := e.eq1(a, b)
	e.memo[key] = ok
	return ok
}

func (e *astEq) eq1(a, b *ast.Node) bool {
	if a.Kind != b.Kind || a.Label != b.Label ||
		len(a.Children) != len(b.Children) || len(a.Alts) != len(b.Alts) {
		return false
	}
	if (a.Tok == nil) != (b.Tok == nil) {
		return false
	}
	if a.Tok != nil && !tokenEq(*a.Tok, *b.Tok) {
		return false
	}
	for i := range a.Children {
		if !e.eq(a.Children[i], b.Children[i]) {
			return false
		}
	}
	for i := range a.Alts {
		if e.sa.String(a.Alts[i].Cond) != e.sb.String(b.Alts[i].Cond) {
			return false
		}
		if !e.eq(a.Alts[i].Node, b.Alts[i].Node) {
			return false
		}
	}
	return true
}

// tokenEq compares leaf tokens from two independent preprocessor runs. The
// hide set is macro-expansion bookkeeping held by pointer — structurally
// equal runs allocate distinct sets — so it is excluded; everything the
// parser or a renderer can observe is compared.
func tokenEq(a, b token.Token) bool {
	a.Hide, b.Hide = nil, nil
	return a == b
}

func sameAST(sa *cond.Space, a *Result, sb *cond.Space, b *Result) bool {
	eq := &astEq{sa: sa, sb: sb, memo: map[[2]*ast.Node]bool{}}
	return eq.eq(a.AST, b.AST)
}

// sampleAssignments enumerates a deterministic set of macro assignments used
// to cross-check per-configuration projections.
func sampleAssignments() []map[string]bool {
	macros := []string{"FEAT_A", "FEAT_B", "FEAT_C", "FEAT_D", "FEAT_E", "FEAT_F"}
	var out []map[string]bool
	for mask := 0; mask < 1<<len(macros); mask += 7 { // 10 spread-out samples
		m := map[string]bool{}
		for i, name := range macros {
			if mask&(1<<i) != 0 {
				m["(defined "+name+")"] = true
			}
		}
		out = append(out, m)
	}
	return out
}

// TestParallelDifferential is the oracle: generated units parsed at workers
// 2, 4, and 8 must match the sequential reference parse byte for byte. At
// 150 items every seed's unit is above minParallelTokens, and each parse
// must actually run in regions.
func TestParallelDifferential(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			src := genUnit(seed, 150)
			seq, s := parseSrc(t, map[string]string{"main.c": src}, OptAll)
			if seq.AST == nil {
				t.Fatalf("sequential parse failed: %+v", seq.Diags)
			}
			wantStats := normStats(seq.Stats)
			assigns := sampleAssignments()
			for _, w := range []int{2, 4, 8} {
				opts := OptAll
				opts.ParseWorkers = w
				par, s2 := parseWith(t, src, opts)
				if par.Regions == 0 {
					t.Fatalf("workers=%d parsed sequentially; the differential compares nothing", w)
				}
				if !sameAST(s, seq, s2, par) {
					for _, a := range assigns {
						sp, pp := projectTokens(s, seq.AST, a), projectTokens(s2, par.AST, a)
						if sp != pp {
							t.Fatalf("workers=%d projection %v diverges\nseq: %s\npar: %s",
								w, a, clip(sp), clip(pp))
						}
					}
					t.Fatalf("workers=%d AST structure diverges from sequential (projections agree)", w)
				}
				for _, a := range assigns {
					if sp, pp := projectTokens(s, seq.AST, a), projectTokens(s2, par.AST, a); sp != pp {
						t.Fatalf("workers=%d projection %v diverges\nseq: %s\npar: %s", w, a, clip(sp), clip(pp))
					}
				}
				if len(par.Diags) != len(seq.Diags) || par.Killed != seq.Killed {
					t.Fatalf("workers=%d diags/killed diverge: %d/%v vs %d/%v",
						w, len(par.Diags), par.Killed, len(seq.Diags), seq.Killed)
				}
				if gs := normStats(par.Stats); !reflect.DeepEqual(gs, wantStats) {
					t.Fatalf("workers=%d stats diverge:\nseq: %+v\npar: %+v", w, wantStats, gs)
				}
			}
		})
	}
}

func clip(s string) string {
	if len(s) > 4000 {
		return s[:4000] + "..."
	}
	return s
}

// TestParallelPathEngages pins that the corpus actually exercises the
// parallel path rather than silently falling back — otherwise the
// differential test proves nothing.
func TestParallelPathEngages(t *testing.T) {
	src := genUnit(1, 120)
	s := cond.NewSpace(cond.ModeBDD)
	p := preprocessor.New(preprocessor.Options{Space: s, FS: preprocessor.MapFS(map[string]string{"main.c": src})})
	u, err := p.Preprocess("main.c")
	if err != nil {
		t.Fatalf("preprocess: %v", err)
	}
	opts := OptAll
	opts.ParseWorkers = 4
	eng := New(s, cgrammar.MustLoad(), opts)
	res, ok := eng.parseParallel(u.EnsureSegments(), u.Chunks, "main.c")
	if !ok {
		t.Fatal("parseParallel declined the generated corpus; differential coverage is vacuous")
	}
	if res.AST == nil {
		t.Fatal("parallel parse produced no AST")
	}
}

// TestParallelSplitDeclines checks the conservative bail-outs: tiny units,
// SAT-mode spaces, and units whose typedefs straddle conditionals must fall
// back (and still produce the sequential answer through ParseUnit).
func TestParallelSplitDeclines(t *testing.T) {
	t.Run("tiny", func(t *testing.T) {
		opts := OptAll
		opts.ParseWorkers = 8
		res, _ := parseWith(t, "int x;\n", opts)
		if res.AST == nil {
			t.Fatalf("tiny unit failed: %+v", res.Diags)
		}
	})
	t.Run("straddling-typedef", func(t *testing.T) {
		// The typedef keyword and its declarator live in different branches;
		// the prescan must poison rather than mis-seed: a parallel parse the
		// gate accepts must agree with the sequential reference.
		var b strings.Builder
		b.WriteString("#ifdef FEAT_A\ntypedef int\n#else\ntypedef long\n#endif\nweird_t;\n")
		b.WriteString("weird_t w = 0;\n")
		b.WriteString(genUnit(9, 80))
		src := b.String()
		seq, s := parseSrc(t, map[string]string{"main.c": src}, OptAll)
		par, s2, ok := parseRegions(t, src, 4)
		if !ok {
			return
		}
		if !sameAST(s, seq, s2, par) {
			t.Fatal("straddling-typedef unit diverges from sequential")
		}
		if !reflect.DeepEqual(normStats(par.Stats), normStats(seq.Stats)) {
			t.Fatalf("stats diverge:\nseq: %+v\npar: %+v", normStats(seq.Stats), normStats(par.Stats))
		}
	})
	t.Run("sat-mode", func(t *testing.T) {
		src := genUnit(3, 120)
		s := cond.NewSpace(cond.ModeSAT)
		p := preprocessor.New(preprocessor.Options{Space: s, FS: preprocessor.MapFS(map[string]string{"main.c": src})})
		u, err := p.Preprocess("main.c")
		if err != nil {
			t.Fatalf("preprocess: %v", err)
		}
		opts := OptAll
		opts.ParseWorkers = 4
		eng := New(s, cgrammar.MustLoad(), opts)
		if _, ok := eng.parseParallel(u.EnsureSegments(), u.Chunks, "main.c"); ok {
			t.Fatal("parseParallel admitted a SAT-mode space")
		}
		if res := eng.ParseUnit(u); res.AST == nil {
			t.Fatalf("SAT-mode fallback parse failed: %+v", res.Diags)
		}
	})
}

// TestParallelDeterministicAcrossRuns parses the same unit twice at the same
// worker count; byte-identical output must not depend on scheduling.
func TestParallelDeterministicAcrossRuns(t *testing.T) {
	src := genUnit(7, 120)
	opts := OptAll
	opts.ParseWorkers = 8
	a, s1 := parseWith(t, src, opts)
	b, s2 := parseWith(t, src, opts)
	if a.Regions == 0 || b.Regions == 0 {
		t.Fatalf("parsed as %d and %d regions; want both in parallel", a.Regions, b.Regions)
	}
	if !sameAST(s1, a, s2, b) {
		t.Fatal("two parallel runs of the same unit disagree")
	}
	if !reflect.DeepEqual(normStats(a.Stats), normStats(b.Stats)) {
		t.Fatalf("stats differ across runs:\n%+v\n%+v", normStats(a.Stats), normStats(b.Stats))
	}
}

// TestParallelAdmission pins ParseUnit's size gate: at two workers a corpus
// unit below minParallelTokens parses sequentially even though it splits,
// and a giant unit parses in regions.
func TestParallelAdmission(t *testing.T) {
	c := corpus.Generate(corpus.Params{Seed: 1, CFiles: 6, GenHeaders: 8})
	lang := cgrammar.MustLoad()
	opts := OptAll
	opts.ParseWorkers = 2
	preprocess := func(cf string) (*preprocessor.Unit, *cond.Space) {
		t.Helper()
		s := cond.NewSpace(cond.ModeBDD)
		p := preprocessor.New(preprocessor.Options{Space: s, FS: c.FS, IncludePaths: []string{"include", "include/gen", "include/linux"}})
		u, err := p.Preprocess(cf)
		if err != nil {
			t.Fatalf("%s: preprocess: %v", cf, err)
		}
		return u, s
	}
	split := ""
	for _, cf := range c.CFiles {
		u, s := preprocess(cf)
		if u.Stats.Tokens >= minParallelTokens {
			t.Fatalf("%s has %d tokens, not below the gate of %d", cf, u.Stats.Tokens, minParallelTokens)
		}
		if _, ok := New(s, lang, opts).parseParallel(u.EnsureSegments(), u.Chunks, cf); ok {
			split = cf
			break
		}
	}
	if split == "" {
		t.Fatal("no corpus unit splits; the gate is not what keeps them sequential")
	}
	u, s := preprocess(split)
	if res := New(s, lang, opts).ParseUnit(u); res.Regions != 0 {
		t.Errorf("%s (%d tokens) parsed as %d regions; want sequential below %d tokens",
			split, u.Stats.Tokens, res.Regions, minParallelTokens)
	}

	res, _ := parseWith(t, genUnit(1, 400), opts)
	if res.AST == nil || res.Regions == 0 {
		t.Errorf("GiantUnit(1, 400) parsed as %d regions (AST %v); want a parallel parse", res.Regions, res.AST != nil)
	}
}
