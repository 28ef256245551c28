package undefuse_test

import (
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/passes/undefuse"
	"repro/internal/core"
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
	}, []*analysis.Analyzer{undefuse.Analyzer})
	return r, tool
}

func TestPartiallyDeclaredUse(t *testing.T) {
	r, tool := lint(t, `
#ifdef CONFIG_C
int guarded;
#endif
int use(void) { return guarded; }
`)
	if len(r.Diags) != 1 {
		t.Fatalf("diags: %+v", r.Diags)
	}
	d := r.Diags[0]
	if !strings.Contains(d.Msg, `"guarded"`) {
		t.Errorf("msg: %s", d.Msg)
	}
	// Missing exactly where the declaration is off.
	s := tool.Space()
	if !s.Equal(d.Cond, s.Not(s.Var("(defined CONFIG_C)"))) {
		t.Errorf("cond = %s, want !(defined CONFIG_C)", s.String(d.Cond))
	}
	if d.Witness["(defined CONFIG_C)"] {
		t.Errorf("witness %v should disable CONFIG_C", d.Witness)
	}
	if !d.WitnessVerified {
		t.Error("witness not verified")
	}
}

func TestUnconditionalDeclarationNotFlagged(t *testing.T) {
	r, _ := lint(t, `
int always;
int use(void) { return always; }
`)
	if len(r.Diags) != 0 {
		t.Errorf("diags: %+v", r.Diags)
	}
}

func TestNeverDeclaredNotFlagged(t *testing.T) {
	// Undeclared in every configuration: an ordinary compiler error, not a
	// variability bug — out of scope for this pass.
	r, _ := lint(t, `
int use(void) { return phantom; }
`)
	if len(r.Diags) != 0 {
		t.Errorf("uniformly-undeclared name flagged: %+v", r.Diags)
	}
}

func TestGuardedUseNotFlagged(t *testing.T) {
	// Use sits under the same condition as the declaration: no
	// configuration reaches the use without it.
	r, _ := lint(t, `
#ifdef CONFIG_C
int guarded;
#endif
int use(void) {
#ifdef CONFIG_C
    return guarded;
#else
    return 0;
#endif
}
`)
	if len(r.Diags) != 0 {
		t.Errorf("properly guarded use flagged: %+v", r.Diags)
	}
}

func TestParametersAndLocalsInScope(t *testing.T) {
	r, _ := lint(t, `
int add(int left, int right) {
    int sum = left + right;
    return sum;
}
`)
	if len(r.Diags) != 0 {
		t.Errorf("parameters or locals flagged: %+v", r.Diags)
	}
}

func TestMemberAndLabelNamesNotUses(t *testing.T) {
	r, _ := lint(t, `
struct box { int inner; };
int f(struct box *b) {
    if (b->inner) goto out;
    return 1;
out:
    return b->inner;
}
`)
	if len(r.Diags) != 0 {
		t.Errorf("member/label names treated as uses: %+v", r.Diags)
	}
}

func TestConditionalLocalUse(t *testing.T) {
	r, tool := lint(t, `
int f(void) {
#ifdef CONFIG_T
    int tmp = 1;
#endif
    return tmp;
}
`)
	if len(r.Diags) != 1 {
		t.Fatalf("diags: %+v", r.Diags)
	}
	s := tool.Space()
	if !s.Equal(r.Diags[0].Cond, s.Not(s.Var("(defined CONFIG_T)"))) {
		t.Errorf("cond = %s", s.String(r.Diags[0].Cond))
	}
}

func TestParameterShadowsConditionalGlobal(t *testing.T) {
	// The parameter declares x on every path into the body, whatever the
	// conditional file-scope x does.
	r, _ := lint(t, `
#ifdef CONFIG_A
int x;
#endif
int f(int x) { return x; }
`)
	if len(r.Diags) != 0 {
		t.Errorf("parameter use flagged: %+v", r.Diags)
	}
}

func TestBlockScopeEnumeratorDeclares(t *testing.T) {
	r, _ := lint(t, `
#ifdef CONFIG_A
int RED;
#endif
int g(void) { enum { RED } c = RED; return c; }
`)
	if len(r.Diags) != 0 {
		t.Errorf("block-scope enumerator use flagged: %+v", r.Diags)
	}
}

// TestFileScopeEnumeratorDeclares: a file-scope enumerator declares its
// name, so a use under a configuration without it is reported rather than
// skipped as never declared.
func TestFileScopeEnumeratorDeclares(t *testing.T) {
	r, tool := lint(t, `
#ifdef CONFIG_A
enum { E };
#endif
int f(void) { return E; }
`)
	if len(r.Diags) != 1 {
		t.Fatalf("diags: %+v", r.Diags)
	}
	d := r.Diags[0]
	s := tool.Space()
	if !strings.Contains(d.Msg, `"E"`) || !s.Equal(d.Cond, s.Not(s.Var("(defined CONFIG_A)"))) {
		t.Errorf("diag %s under %s, want E under !(defined CONFIG_A)", d.Msg, s.String(d.Cond))
	}
}
