package fmlr

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cgrammar"
	"repro/internal/cond"
	"repro/internal/preprocessor"
)

// randomConditionalSource synthesizes a unit with nested conditionals,
// empty branches, elses, and typedef variability — the forest shapes the
// follow-set memo and the pooling paths must survive.
func randomConditionalSource(r *rand.Rand, decls int) string {
	var b strings.Builder
	b.WriteString("typedef int base_t;\n")
	for i := 0; i < decls; i++ {
		switch r.Intn(5) {
		case 0:
			fmt.Fprintf(&b, "#ifdef CONFIG_%c\nint a%d;\n#endif\n", 'A'+r.Intn(4), i)
		case 1:
			fmt.Fprintf(&b, "#ifdef CONFIG_%c\nlong b%d;\n#else\nshort b%d;\n#endif\n",
				'A'+r.Intn(4), i, i)
		case 2:
			fmt.Fprintf(&b,
				"#ifdef CONFIG_%c\n#ifdef CONFIG_%c\ntypedef int t%d;\n#endif\nbase_t c%d;\n#endif\n",
				'A'+r.Intn(4), 'A'+r.Intn(4), i, i)
		case 3:
			fmt.Fprintf(&b, "#ifdef CONFIG_%c\n#else\n#endif\nint d%d(void) { return %d; }\n",
				'A'+r.Intn(4), i, i)
		default:
			fmt.Fprintf(&b, "int e%d;\n", i)
		}
	}
	return b.String()
}

// TestFollowMemoMatchesDirect is the differential test for follow-set
// memoization: every memoized follow(c, a) must equal the direct
// Algorithm 3 traversal followCompute(c, a) — same elements, same order,
// equivalent conditions.
func TestFollowMemoMatchesDirect(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 8; trial++ {
		src := randomConditionalSource(r, 12)
		s := cond.NewSpace(cond.ModeBDD)
		p := preprocessor.New(preprocessor.Options{Space: s, FS: preprocessor.MapFS(map[string]string{"main.c": src})})
		u, err := p.Preprocess("main.c")
		if err != nil {
			t.Fatalf("preprocess: %v", err)
		}
		eng := New(s, cgrammar.MustLoad(), OptAll)
		eng.acquireScratch()
		first, _ := buildForest(u.EnsureSegments(), "main.c")
		eng.followMemo = eng.sc.followMemo

		// Walk every conditional element and query follow under a variety
		// of conditions, twice each (second query hits the memo).
		conds := []cond.Cond{
			s.True(),
			s.Var("CONFIG_A"),
			s.Not(s.Var("CONFIG_B")),
			s.And(s.Var("CONFIG_A"), s.Var("CONFIG_C")),
			s.Or(s.Var("CONFIG_B"), s.Not(s.Var("CONFIG_D"))),
		}
		var els []*element
		var collect func(el *element)
		collect = func(el *element) {
			for ; el != nil; el = el.next {
				els = append(els, el)
				if el.cnd != nil {
					for _, br := range el.cnd.branches {
						collect(br.first)
					}
				}
			}
		}
		collect(first)
		for _, el := range els {
			for round := 0; round < 2; round++ {
				for _, c := range conds {
					got := append([]head(nil), eng.follow(c, el)...)
					want := eng.followCompute(c, el)
					if len(got) != len(want) {
						t.Fatalf("trial %d el %d cond %s: memoized %d heads, direct %d",
							trial, el.ord, s.String(c), len(got), len(want))
					}
					for i := range got {
						if got[i].el != want[i].el {
							t.Fatalf("trial %d el %d: head %d element mismatch (ord %d vs %d)",
								trial, el.ord, i, got[i].el.ord, want[i].el.ord)
						}
						if !s.Equal(got[i].cond, want[i].cond) {
							t.Fatalf("trial %d el %d head %d: cond %s != %s",
								trial, el.ord, i, s.String(got[i].cond), s.String(want[i].cond))
						}
					}
				}
			}
		}
		if eng.stats.FollowMisses == 0 || eng.stats.FollowHits == 0 {
			t.Fatalf("memo not exercised: %d hits, %d misses", eng.stats.FollowHits, eng.stats.FollowMisses)
		}
		eng.releaseScratch()
	}
}

// TestPooledParseMatchesUnitTests re-parses randomized units at every
// optimization level and checks the levels agree with each other on the
// projected token streams — the pooling layers (subparser free-list, stack
// arena, AST slabs) must not leak state between subparsers or parses. The
// same engine re-parses each unit twice to exercise scratch recycling.
func TestPooledParseMatchesUnitTests(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	levels := []Options{OptAll, OptSharedLazy, OptShared, OptLazy, OptFollowOnly}
	assigns := []map[string]bool{
		{"CONFIG_A": true, "CONFIG_B": true, "CONFIG_C": true, "CONFIG_D": true},
		{"CONFIG_A": false, "CONFIG_B": true, "CONFIG_C": false, "CONFIG_D": true},
		{"CONFIG_A": true, "CONFIG_B": false, "CONFIG_C": true, "CONFIG_D": false},
		{"CONFIG_A": false, "CONFIG_B": false, "CONFIG_C": false, "CONFIG_D": false},
	}
	for trial := 0; trial < 6; trial++ {
		src := randomConditionalSource(r, 10)
		var ref []string
		for li, opts := range levels {
			s := cond.NewSpace(cond.ModeBDD)
			p := preprocessor.New(preprocessor.Options{Space: s, FS: preprocessor.MapFS(map[string]string{"main.c": src})})
			u, err := p.Preprocess("main.c")
			if err != nil {
				t.Fatalf("preprocess: %v", err)
			}
			eng := New(s, cgrammar.MustLoad(), opts)
			res := eng.Parse(u.EnsureSegments(), "main.c")
			res2 := eng.Parse(u.EnsureSegments(), "main.c")
			for pass, rr := range []*Result{res, res2} {
				if rr.AST == nil || len(rr.Diags) != 0 || rr.Killed {
					t.Fatalf("trial %d level %d pass %d: AST=%v diags=%v killed=%v\n%s",
						trial, li, pass, rr.AST != nil, rr.Diags, rr.Killed, src)
				}
				var projected []string
				for _, a := range assigns {
					projected = append(projected, projectTokens(s, rr.AST, a))
				}
				if ref == nil {
					ref = projected
					continue
				}
				for ai := range assigns {
					if projected[ai] != ref[ai] {
						t.Fatalf("trial %d level %d pass %d assign %d: projection diverged\n got: %s\nwant: %s",
							trial, li, pass, ai, projected[ai], ref[ai])
					}
				}
			}
		}
	}
}

// TestSubparserPoolAccounting checks the free-list is actually cycling:
// any non-trivial parse must reuse far more subparsers than it allocates.
func TestSubparserPoolAccounting(t *testing.T) {
	src := randomConditionalSource(rand.New(rand.NewSource(3)), 24)
	res, _ := parseOK(t, src, OptAll)
	st := res.Stats
	// The package-level scratch pool may already be warm, in which case a
	// parse can run on recycled subparsers alone — but reuse must dominate.
	if st.SubparserReuses == 0 {
		t.Errorf("free-list never cycled: %d reuses vs %d allocs", st.SubparserReuses, st.SubparserAllocs)
	}
	if st.SubparserReuses < st.SubparserAllocs {
		t.Errorf("free-list barely used: %d reuses vs %d allocs", st.SubparserReuses, st.SubparserAllocs)
	}
	if st.FollowMisses == 0 {
		t.Error("follow memo recorded no misses on a conditional-heavy unit")
	}
}
