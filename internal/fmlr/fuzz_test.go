package fmlr

import (
	"strings"
	"testing"

	"repro/internal/cgrammar"
	"repro/internal/cond"
	"repro/internal/preprocessor"
)

// FuzzBlockSplit fuzzes the region splitter's invariants on arbitrary
// source text:
//
//  1. Structure: the chosen regions partition the unit's top-level segments
//     contiguously, every non-final region ends on a top-level ";" or "}"
//     token, and no region is empty.
//  2. Equivalence: whenever the region-parallel strategy (workers=4,
//     driven directly, past ParseUnit's size gate) accepts the split, it
//     yields exactly the sequential reference AST, diagnostics, and kill
//     flag. A declined split falls back to the sequential parse.
//
// The corpus seeds include the shapes that broke earlier drafts: array
// initializers whose closing brace tempts a mid-declaration cut, typedefs
// straddling conditional boundaries, and conditional typedefs shadowed by
// object declarations.
func FuzzBlockSplit(f *testing.F) {
	f.Add("int x;\n")
	f.Add(genUnit(1, 60))
	f.Add(genUnit(2, 40))
	// Array initializer: "}" here is mid-declaration; cutting after it once
	// produced a region missing its trailing ";".
	f.Add("static long a[3] = { 1, 2 };\nint f(void)\n{\n\treturn 0;\n}\n" +
		strings.Repeat("int fill(int a)\n{\n\treturn a;\n}\nstatic long q[2] = { 3, 4 };\n", 30))
	// Typedef straddling a conditional: the prescan must poison, not guess.
	f.Add("#ifdef A\ntypedef int\n#else\ntypedef long\n#endif\nw_t;\nw_t w;\n" +
		strings.Repeat("int pad(void)\n{\n\treturn 1;\n}\n", 40))
	// Conditional typedef plus shadowing object definition.
	f.Add("typedef int sh;\n#ifdef A\nint sh;\n#endif\n" +
		strings.Repeat("#ifdef B\ntypedef int ct;\n#else\ntypedef long ct;\n#endif\nct u;\n", 25))
	// Struct-shaped braces: "}" closing a struct body is mid-declaration.
	f.Add(strings.Repeat("struct S { int a; int b; };\nint g(void)\n{\n\treturn 2;\n}\n", 30))

	lang := cgrammar.MustLoad()
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<13 {
			return
		}
		s := cond.NewSpace(cond.ModeBDD)
		p := preprocessor.New(preprocessor.Options{Space: s, FS: preprocessor.MapFS(map[string]string{"main.c": src})})
		u, err := p.Preprocess("main.c")
		if err != nil {
			return
		}
		segs := u.EnsureSegments()

		// Invariant 1: structural soundness of any split the splitter offers.
		if regions, ok := splitRegions(s, segs, 4); ok {
			if len(regions) < 2 {
				t.Fatalf("split claimed ok with %d regions", len(regions))
			}
			total := 0
			for ri, rg := range regions {
				if len(rg.segs) == 0 {
					t.Fatalf("region %d is empty", ri)
				}
				total += len(rg.segs)
				if ri == len(regions)-1 {
					continue
				}
				last := rg.segs[len(rg.segs)-1]
				if !last.IsToken() || !(last.Tok.Is(";") || last.Tok.Is("}")) {
					t.Fatalf("region %d ends on %v, not a top-level ';' or '}'", ri, last)
				}
				if regions[ri].seed == nil && ri > 0 {
					t.Fatalf("region %d has no seed snapshot", ri)
				}
			}
			if total != len(segs) {
				t.Fatalf("regions cover %d of %d segments", total, len(segs))
			}
		}

		// Invariant 2: split-then-stitch equals the unsplit parse.
		seq := New(s, lang, OptAll).Parse(segs, "main.c")
		popts := OptAll
		popts.ParseWorkers = 4
		s2 := cond.NewSpace(cond.ModeBDD)
		p2 := preprocessor.New(preprocessor.Options{Space: s2, FS: preprocessor.MapFS(map[string]string{"main.c": src})})
		u2, err := p2.Preprocess("main.c")
		if err != nil {
			t.Fatalf("second preprocess disagrees: %v", err)
		}
		par, ok := New(s2, lang, popts).parseParallel(u2.EnsureSegments(), u2.Chunks, "main.c")
		if !ok {
			return
		}
		if !sameAST(s, seq, s2, par) {
			t.Fatal("parallel AST diverges from sequential")
		}
		if len(par.Diags) != len(seq.Diags) || par.Killed != seq.Killed {
			t.Fatalf("diags/killed diverge: %d/%v vs %d/%v",
				len(par.Diags), par.Killed, len(seq.Diags), seq.Killed)
		}
	})
}
