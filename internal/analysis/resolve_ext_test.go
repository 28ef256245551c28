package analysis_test

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/passes"
	"repro/internal/ast"
	"repro/internal/cond"
	"repro/internal/core"
	"repro/internal/guard"
	"repro/internal/hcache"
	"repro/internal/link"
	"repro/internal/preprocessor"
)

func parsedUnit(t *testing.T, src string) *analysis.Unit {
	t.Helper()
	tool := core.New(core.Config{})
	res, err := tool.ParseString("main.c", src)
	if err != nil {
		t.Fatal(err)
	}
	return &analysis.Unit{File: "main.c", Space: tool.Space(), AST: res.AST, PP: res.Unit}
}

const resolveSrc = `
#ifdef CONFIG_A
int g;
#endif
struct box { int inner; };
int f(int p, struct box *b) {
    enum { RED } c = RED;
    extern int e;
    int self = sizeof(self);
    if (b->inner) goto out;
out:
    return p + c + g + e + self;
}
int *addr = &g;
`

// TestResolveOncePerUnit: link extraction and every analysis pass over one
// Unit share a single resolution, in either order.
func TestResolveOncePerUnit(t *testing.T) {
	u := parsedUnit(t, resolveSrc)
	analysis.ExtractLinkFacts(u)
	first := analysis.Resolved(u)
	if first == nil {
		t.Fatal("ExtractLinkFacts did not resolve the unit")
	}
	analysis.Run(u, passes.All())
	if analysis.Resolved(u) != first {
		t.Error("Run resolved the unit a second time")
	}

	u = parsedUnit(t, resolveSrc)
	analysis.Run(u, passes.All())
	first = analysis.Resolved(u)
	analysis.ExtractLinkFacts(u)
	if first == nil || analysis.Resolved(u) != first {
		t.Error("ExtractLinkFacts did not reuse Run's resolution")
	}
}

// TestResolveScopingRules pins each use of resolveSrc: which names count as
// uses at all, and which escape the function's own scopes.
func TestResolveScopingRules(t *testing.T) {
	u := parsedUnit(t, resolveSrc)
	s := u.Space
	a := s.Var("(defined CONFIG_A)")
	var got []string
	for _, use := range u.Resolution().Uses {
		got = append(got, use.Tok.Text)
		var want struct{ missing, escaped cond.Cond }
		switch use.Tok.Text {
		case "p", "c", "RED", "self", "b":
			want.missing, want.escaped = s.False(), s.False()
		case "e":
			// A block-scope extern declares the name locally.
			want.missing, want.escaped = s.False(), s.False()
		case "g":
			want.missing, want.escaped = s.Not(a), s.True()
			if use.TopLevel {
				// Only function-body uses are checked for declarations.
				want.missing = s.False()
			}
		default:
			t.Errorf("unexpected use %q", use.Tok.Text)
			continue
		}
		if !s.Equal(use.Missing, want.missing) || !s.Equal(use.Escaped, want.escaped) {
			t.Errorf("%s at %d:%d: missing %s escaped %s, want %s and %s", use.Tok.Text,
				use.Tok.Line, use.Tok.Col, s.String(use.Missing), s.String(use.Escaped),
				s.String(want.missing), s.String(want.escaped))
		}
		if wantTop := use.Tok.Line == 14; use.TopLevel != wantTop {
			t.Errorf("%s at line %d: TopLevel = %v", use.Tok.Text, use.Tok.Line, use.TopLevel)
		}
	}
	// Member, label and goto names are not uses; neither are keywords.
	if want := "RED self b p c g e self g"; strings.Join(got, " ") != want {
		t.Errorf("uses %q, want %q", strings.Join(got, " "), want)
	}
}

// TestResolveUsesByFile: uses in two headers at one line:col are two uses,
// each anchored in its own header and under its own condition.
func TestResolveUsesByFile(t *testing.T) {
	tool := core.New(core.Config{FS: preprocessor.MapFS{
		"m.c":  "#ifdef CONFIG_A\n#include \"ha.h\"\n#endif\n#include \"hb.h\"\n",
		"ha.h": "int fa(void) { return n; }\n",
		"hb.h": "int fb(void) { return n; }\n",
	}})
	res, err := tool.ParseFile("m.c")
	if err != nil {
		t.Fatal(err)
	}
	u := &analysis.Unit{File: "m.c", Space: tool.Space(), AST: res.AST, PP: res.Unit}
	s := u.Space
	var got []string
	for _, use := range u.Resolution().Uses {
		missing := s.String(use.Missing)
		if s.IsTrue(use.Missing) {
			missing = "1"
		}
		got = append(got, fmt.Sprintf("%s %s:%d:%d missing %s", use.Tok.Text, use.Tok.File, use.Tok.Line, use.Tok.Col, missing))
	}
	want := []string{
		"n hb.h:1:23 missing 1",
		"n ha.h:1:23 missing (defined CONFIG_A)",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("uses:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestResolveDecls pins the file-scope declarators and the enumerators the
// resolution records: parameter names and block-scope names are not
// file-scope declarators, and each Decl carries its shape bits.
func TestResolveDecls(t *testing.T) {
	u := parsedUnit(t, `
typedef int (*h_t)(int code);
int a, *b = 0;
int f(void);
int (*fp)(int);
#ifdef CONFIG_A
static int g(int x) { enum { IN } e = IN; return x + e; }
#endif
enum { OUT };
`)
	s := u.Space
	cs := func(c cond.Cond) string {
		if s.IsTrue(c) {
			return "1"
		}
		return s.String(c)
	}
	var got []string
	for _, d := range u.Resolution().Decls {
		got = append(got, fmt.Sprintf("%s t=%v i=%v f=%v b=%v %s", d.Tok.Text, d.Typedef, d.Initialized, d.Function, d.Body, cs(d.Cond)))
	}
	want := []string{
		"h_t t=true i=false f=false b=false 1",
		"a t=false i=false f=false b=false 1",
		"b t=false i=true f=false b=false 1",
		"f t=false i=false f=true b=false 1",
		"fp t=false i=false f=false b=false 1",
		"g t=false i=false f=true b=true (defined CONFIG_A)",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("decls:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	got = got[:0]
	for _, e := range u.Resolution().Enumerators {
		got = append(got, e.Tok.Text+" "+cs(e.Cond))
	}
	if want := "IN (defined CONFIG_A), OUT 1"; strings.Join(got, ", ") != want {
		t.Errorf("enumerators %q, want %q", strings.Join(got, ", "), want)
	}
}

// TestResolveErrorRegionOncePerPath pins the shape the resolver's count
// relies on: FMLR builds a degradation error node only as the unit's root
// or as an alternative of the root choice, which one path reaches, so
// visiting the file-scope spine once still counts each error region once
// per path.
func TestResolveErrorRegionOncePerPath(t *testing.T) {
	tool := core.New(core.Config{})
	tool.SetBudget(guard.New(context.Background(), guard.Limits{Subparsers: 3}))
	res, err := tool.ParseString("main.c", `
int a;
#ifdef CONFIG_A
int b;
#endif
int c;
#ifdef CONFIG_B
int d(int x) { return x; }
#elif defined CONFIG_C
long d(long x) { return x; }
#elif defined CONFIG_D
short d(short x) { return x; }
#else
char d(char x) { return x; }
#endif
`)
	if err != nil {
		t.Fatal(err)
	}
	if !tool.Budget().Tripped() {
		t.Fatal("subparser budget did not trip; the test needs a forkier source")
	}
	atRoot := 0
	if res.AST.IsError() {
		atRoot++
	} else if res.AST.Kind == ast.KindChoice {
		for _, alt := range res.AST.Alts {
			if alt.Node.IsError() {
				atRoot++
			}
		}
	}
	total := 0
	ast.Walk(res.AST, func(n *ast.Node) bool {
		if n.IsError() {
			total++
		}
		return true
	})
	if atRoot != 1 || total != 1 {
		t.Fatalf("error nodes: %d at the root, %d in all; want exactly one, at the root", atRoot, total)
	}
	u := &analysis.Unit{File: "main.c", Space: tool.Space(), AST: res.AST, PP: res.Unit}
	if got := u.Resolution().ErrorRegions; got != 1 {
		t.Errorf("ErrorRegions = %d, want 1", got)
	}
}

// modeFindings runs every pass over the files, and the linker too when
// doLink is set, under one condition mode, returning one line per finding
// without its condition (SAT mode renders syntactic formulas) and failing
// on any witness the independent check rejects.
func modeFindings(t *testing.T, mode cond.Mode, dir string, files []string, doLink bool) []string {
	t.Helper()
	var out []string
	var facts []*link.Facts
	for _, f := range files {
		tool := core.New(core.Config{IncludePaths: []string{dir}, CondMode: mode})
		path := filepath.Join(dir, f)
		res, err := tool.ParseFile(path)
		if err != nil {
			t.Fatal(err)
		}
		u := &analysis.Unit{File: path, Space: tool.Space(), AST: res.AST, PP: res.Unit}
		if doLink {
			facts = append(facts, analysis.ExtractLinkFacts(u))
		}
		for _, d := range analysis.Run(u, passes.All()).Diags {
			if !d.WitnessVerified {
				t.Errorf("%v: witness %v fails %s", mode, d.Witness, d.CondStr)
			}
			out = append(out, fmt.Sprintf("%s %s:%d:%d %s", d.Pass, d.File, d.Line, d.Col, d.Msg))
		}
	}
	if doLink {
		for _, f := range link.Link(facts, hcache.NewCanon()).Findings {
			d := analysis.LinkDiagnostic(f)
			if !d.WitnessVerified {
				t.Errorf("%v: link witness %v fails %s", mode, d.Witness, d.CondStr)
			}
			out = append(out, fmt.Sprintf("%s %s:%d:%d %s", d.Pass, d.File, d.Line, d.Col, d.Msg))
		}
	}
	return out
}

// TestModesAgreeOnFixtures: BDD and SAT condition modes report the same
// findings over the clint and link fixtures.
func TestModesAgreeOnFixtures(t *testing.T) {
	for _, fx := range []struct {
		dir    string
		files  []string
		doLink bool
	}{
		{"../../examples/clint", []string{"config_bugs.c", "clean.c"}, false},
		{"../../examples/link", []string{"a.c", "b.c"}, true},
	} {
		bdd := modeFindings(t, cond.ModeBDD, fx.dir, fx.files, fx.doLink)
		sat := modeFindings(t, cond.ModeSAT, fx.dir, fx.files, fx.doLink)
		if len(bdd) == 0 {
			t.Errorf("%s: no findings", fx.dir)
		}
		if strings.Join(bdd, "\n") != strings.Join(sat, "\n") {
			t.Errorf("%s: modes disagree\nbdd:\n%s\nsat:\n%s", fx.dir, strings.Join(bdd, "\n"), strings.Join(sat, "\n"))
		}
	}
}
