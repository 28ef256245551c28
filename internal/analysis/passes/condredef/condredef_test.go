package condredef_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/passes/condredef"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/preprocessor"
)

func lint(t *testing.T, src string) (*analysis.Result, *core.Tool) {
	t.Helper()
	tool := core.New(core.Config{})
	res, err := tool.ParseString("main.c", src)
	if err != nil {
		t.Fatal(err)
	}
	r := analysis.Run(&analysis.Unit{
		File:  "main.c",
		Space: tool.Space(),
		AST:   res.AST,
		PP:    res.Unit,
	}, []*analysis.Analyzer{condredef.Analyzer})
	return r, tool
}

func TestFileScopeOverlappingDefinitions(t *testing.T) {
	r, tool := lint(t, `
#ifdef CONFIG_B
int x = 1;
#endif
#ifdef CONFIG_C
int x = 2;
#endif
`)
	if len(r.Diags) != 1 {
		t.Fatalf("diags: %+v", r.Diags)
	}
	d := r.Diags[0]
	if !strings.Contains(d.Msg, `"x"`) || !strings.Contains(d.Msg, "twice") {
		t.Errorf("msg: %s", d.Msg)
	}
	// The conflict holds exactly where both branches are on.
	s := tool.Space()
	want := s.And(s.Var("(defined CONFIG_B)"), s.Var("(defined CONFIG_C)"))
	if !s.Equal(d.Cond, want) {
		t.Errorf("cond = %s, want %s", s.String(d.Cond), s.String(want))
	}
	if !d.Witness["(defined CONFIG_B)"] || !d.Witness["(defined CONFIG_C)"] {
		t.Errorf("witness %v", d.Witness)
	}
}

func TestDisjointDefinitionsNotFlagged(t *testing.T) {
	r, _ := lint(t, `
#ifdef CONFIG_B
int both = 1;
#else
int both = 2;
#endif
`)
	if len(r.Diags) != 0 {
		t.Errorf("disjoint definitions flagged: %+v", r.Diags)
	}
}

func TestBlockScopeTypedefObjectClash(t *testing.T) {
	// Object first, typedef second: the reverse order is a parse error in
	// the guarded alternative ("int <typedef-name> = 0" has no declarator
	// reading), so that subparser dies before the analysis ever sees it.
	r, _ := lint(t, `
int f(void) {
    int y = 1;
#ifdef CONFIG_E
    typedef int y;
#endif
    return 0;
}
`)
	if len(r.Diags) != 1 {
		t.Fatalf("diags: %+v", r.Diags)
	}
	if !strings.Contains(r.Diags[0].Msg, "typedef and an object in the same scope") {
		t.Errorf("msg: %s", r.Diags[0].Msg)
	}
}

func TestShadowingInNestedScopeNotFlagged(t *testing.T) {
	// An inner block redeclaring an outer name is shadowing, not
	// redefinition.
	r, _ := lint(t, `
int f(void) {
    int v = 1;
    {
        int v = 2;
    }
    return 0;
}
`)
	if len(r.Diags) != 0 {
		t.Errorf("shadowing flagged: %+v", r.Diags)
	}
}

func TestSameScopeObjectRedefinition(t *testing.T) {
	r, _ := lint(t, `
int f(void) {
    int v = 1;
#ifdef CONFIG_D
    int v = 2;
#endif
    return 0;
}
`)
	if len(r.Diags) != 1 {
		t.Fatalf("diags: %+v", r.Diags)
	}
	if !strings.Contains(r.Diags[0].Msg, "redefined in the same scope") {
		t.Errorf("msg: %s", r.Diags[0].Msg)
	}
}

// TestBlockScopeRedefinitionReportedOnce: a function body the AST shares
// between choice alternatives is reached on several paths, and its
// redefinition is one finding under the disjunction of their conditions,
// not one finding per path. In the giant unit the function is the file's
// first item, shared by the 64 paths of six unrelated macros; in the short
// source it follows the list's first item, so each path visits it.
func TestBlockScopeRedefinitionReportedOnce(t *testing.T) {
	giant := strings.Replace(corpus.GiantUnit(1, 300), "\tint t = a * 3;\n",
		"\tint t = a * 3;\n#ifdef CONFIG_Q\n\tint t = 2;\n#endif\n", 1)
	if !strings.HasPrefix(giant, "static int f1(int a, int b)\n{\n\tint t = a * 3;\n#ifdef CONFIG_Q") {
		t.Fatalf("the giant unit no longer starts with f1:\n%.80s", giant)
	}
	for _, c := range []struct{ name, src string }{
		{"giant unit", giant},
		{"list item", `
int w;
int g(void) {
    int t = 1;
#ifdef CONFIG_Q
    int t = 2;
#endif
    return t;
}
#ifdef CONFIG_A
int x;
#endif
`},
	} {
		t.Run(c.name, func(t *testing.T) {
			r, tool := lint(t, c.src)
			var redefs []analysis.Diagnostic
			for _, d := range r.Diags {
				if strings.Contains(d.Msg, `"t" redefined in the same scope`) {
					redefs = append(redefs, d)
				}
			}
			if len(redefs) != 1 {
				t.Fatalf("%d redefinitions of t reported, want 1: %+v", len(redefs), redefs)
			}
			s := tool.Space()
			if want := s.Var("(defined CONFIG_Q)"); !s.Equal(redefs[0].Cond, want) {
				t.Errorf("cond = %s, want (defined CONFIG_Q)", redefs[0].CondStr)
			}
		})
	}
}

func TestDisjointBlockScopeNotFlagged(t *testing.T) {
	r, _ := lint(t, `
int f(void) {
#ifdef CONFIG_D
    int v = 1;
#else
    int v = 2;
#endif
    return 0;
}
`)
	if len(r.Diags) != 0 {
		t.Errorf("disjoint block-scope definitions flagged: %+v", r.Diags)
	}
}

// TestTypedefFunctionPointerParams: parameter names of a typedef'd function
// pointer type are not typedef names, so two such typedefs sharing a
// parameter name redefine nothing.
func TestTypedefFunctionPointerParams(t *testing.T) {
	r, _ := lint(t, `
typedef int (*h_t)(int code);
typedef void (*l_t)(int code);
`)
	if len(r.Diags) != 0 {
		t.Errorf("parameter names reported: %+v", r.Diags)
	}
}

func lintFiles(t *testing.T, fs preprocessor.MapFS, file string) *analysis.Result {
	t.Helper()
	tool := core.New(core.Config{FS: fs})
	res, err := tool.ParseFile(file)
	if err != nil {
		t.Fatal(err)
	}
	return analysis.Run(&analysis.Unit{File: file, Space: tool.Space(), AST: res.AST, PP: res.Unit},
		[]*analysis.Analyzer{condredef.Analyzer})
}

// TestHeaderDefinitionPositions: definitions are told apart and reported by
// their own file's position, not by the unit's.
func TestHeaderDefinitionPositions(t *testing.T) {
	for _, tc := range []struct {
		name, file, want string
		fs               preprocessor.MapFS
	}{
		{"two headers, one position", "m.c", "hb.h:1:5", preprocessor.MapFS{
			"m.c":  "#include \"ha.h\"\n#include \"hb.h\"\n",
			"ha.h": "int dup = 1;\n",
			"hb.h": "int dup = 2;\n",
		}},
		{"later definition in a header", "m5.c", "hd.h:3:5", preprocessor.MapFS{
			"m5.c": "int dup = 1;\n#include \"hd.h\"\n",
			"hd.h": "/* header */\n#define HD 1\nint dup = 2;\n",
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := lintFiles(t, tc.fs, tc.file)
			if len(r.Diags) != 1 {
				t.Fatalf("diags: %+v", r.Diags)
			}
			d := r.Diags[0]
			if got := fmt.Sprintf("%s:%d:%d", d.File, d.Line, d.Col); got != tc.want {
				t.Errorf("conflict at %s, want %s", got, tc.want)
			}
		})
	}
}
