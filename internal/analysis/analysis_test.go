package analysis

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cond"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/link"
	"repro/internal/preprocessor"
)

func buildUnit(t *testing.T, src string) (*Unit, *core.Tool) {
	t.Helper()
	tool := core.New(core.Config{FS: preprocessor.MapFS{"main.c": src}})
	return parseUnit(t, tool, "main.c"), tool
}

func parseUnit(t *testing.T, tool *core.Tool, file string) *Unit {
	t.Helper()
	res, err := tool.ParseFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if res.AST == nil {
		t.Fatalf("%s: parse failed: %v", file, res.Parse.Diags)
	}
	return &Unit{File: file, Space: tool.Space(), AST: res.AST, PP: res.Unit}
}

// symbols returns the unit's definitions of one name.
func symbols(u *Unit, name string) []Symbol {
	var out []Symbol
	for _, s := range Definitions(u) {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// names returns the defined names in first-sighting order.
func names(u *Unit) []string {
	var out []string
	seen := map[string]bool{}
	for _, s := range Definitions(u) {
		if !seen[s.Name] {
			seen[s.Name] = true
			out = append(out, s.Name)
		}
	}
	return out
}

func TestIndexBasics(t *testing.T) {
	u, _ := buildUnit(t, `
int counter = 0;
typedef unsigned long size_type;
static int helper(int x) { return x + 1; }
extern int tentative_only;
`)
	if got := len(symbols(u, "counter")); got != 1 {
		t.Errorf("counter: %d", got)
	}
	if sym := symbols(u, "counter")[0]; sym.Kind != KindVariable {
		t.Errorf("counter kind = %s", sym.Kind)
	}
	if sym := symbols(u, "size_type"); len(sym) != 1 || sym[0].Kind != KindTypedef {
		t.Errorf("size_type: %+v", sym)
	}
	if sym := symbols(u, "helper"); len(sym) != 1 || sym[0].Kind != KindFunction {
		t.Errorf("helper: %+v", sym)
	}
	// Tentative (uninitialized, non-typedef) declarations are not
	// definitions.
	if got := len(symbols(u, "tentative_only")); got != 0 {
		t.Errorf("tentative declaration indexed: %d", got)
	}
}

func TestConditionalSymbolConditions(t *testing.T) {
	u, tool := buildUnit(t, `
#ifdef CONFIG_A
int feature(void) { return 1; }
#endif
`)
	syms := symbols(u, "feature")
	if len(syms) != 1 {
		t.Fatalf("feature: %d", len(syms))
	}
	s := tool.Space()
	if !s.Equal(syms[0].Cond, s.Var("(defined CONFIG_A)")) {
		t.Errorf("cond = %s", s.String(syms[0].Cond))
	}
}

// TestConflictingDefinitions is the headline analysis: two definitions of
// the same function in disjoint branches are fine; overlapping conditions
// are a double definition some configuration will hit.
func TestConflictingDefinitions(t *testing.T) {
	// Disjoint: no conflict.
	u, _ := buildUnit(t, `
#ifdef CONFIG_A
int handler(void) { return 1; }
#else
int handler(void) { return 2; }
#endif
`)
	if conflicts := ConflictingDefinitions(u); len(conflicts) != 0 {
		t.Errorf("disjoint definitions reported as conflict: %+v", conflicts)
	}

	// Overlapping: conflict under A && B.
	u2, tool := buildUnit(t, `
#ifdef CONFIG_A
int handler(void) { return 1; }
#endif
#ifdef CONFIG_B
int handler(void) { return 2; }
#endif
`)
	conflicts := ConflictingDefinitions(u2)
	if len(conflicts) != 1 {
		t.Fatalf("conflicts: %+v", conflicts)
	}
	s := tool.Space()
	want := s.And(s.Var("(defined CONFIG_A)"), s.Var("(defined CONFIG_B)"))
	if !s.Equal(conflicts[0].Under, want) {
		t.Errorf("conflict under %s, want %s", s.String(conflicts[0].Under), s.String(want))
	}
}

func TestUnconditionalDoubleDefinition(t *testing.T) {
	u, tool := buildUnit(t, `
int twice = 1;
int twice = 2;
`)
	conflicts := ConflictingDefinitions(u)
	if len(conflicts) != 1 {
		t.Fatalf("conflicts: %d", len(conflicts))
	}
	if !tool.Space().IsTrue(conflicts[0].Under) {
		t.Errorf("unconditional conflict should hold everywhere")
	}
}

func TestCoverageReport(t *testing.T) {
	u, _ := buildUnit(t, `
int always = 1;
#ifdef CONFIG_A
#ifdef CONFIG_B
int rare(void) { return 0; }
#endif
#endif
#ifdef CONFIG_A
int sometimes = 2;
#endif
`)
	cov := CoverageReport(u)
	if len(cov) != 3 {
		t.Fatalf("coverage entries: %d", len(cov))
	}
	// Sorted least-visible first: rare (1/4), sometimes (1/2), always (1).
	if cov[0].Symbol.Name != "rare" || cov[0].Fraction != 0.25 {
		t.Errorf("least covered: %+v", cov[0])
	}
	if cov[1].Symbol.Name != "sometimes" || cov[1].Fraction != 0.5 {
		t.Errorf("middle: %+v", cov[1])
	}
	if cov[2].Symbol.Name != "always" || cov[2].Fraction != 1 {
		t.Errorf("most covered: %+v", cov[2])
	}
}

// TestMultiUnitIndex: across units, definitions meet in the linker, each
// unit with its own condition space.
func TestMultiUnitIndex(t *testing.T) {
	fs := preprocessor.MapFS{
		"a.c": "#ifdef X\nint shared(void) { return 1; }\n#endif\n",
		"b.c": "#ifndef X\nint shared(void) { return 2; }\n#endif\n",
	}
	var facts []*link.Facts
	defs := 0
	for _, f := range []string{"a.c", "b.c"} {
		u := parseUnit(t, core.New(core.Config{FS: fs}), f)
		defs += len(symbols(u, "shared"))
		facts = append(facts, ExtractLinkFacts(u))
	}
	// Defined in both files under complementary conditions: no conflict,
	// and every configuration has exactly one definition.
	if r := link.Link(facts, nil); len(r.Findings) != 0 {
		t.Errorf("complementary cross-file definitions conflict: %+v", r.Findings)
	}
	if defs != 2 {
		t.Errorf("shared definitions: %d", defs)
	}
}

func TestDeclaredNameSkipsNonSpine(t *testing.T) {
	u, _ := buildUnit(t, `
struct holder { int inner_member; };
int outer(struct holder *h) { int local; return h->inner_member; }
`)
	if len(symbols(u, "inner_member")) != 0 {
		t.Error("struct member recorded as top-level symbol")
	}
	if len(symbols(u, "local")) != 0 {
		t.Error("function-local variable recorded as top-level symbol")
	}
	if len(symbols(u, "outer")) != 1 {
		t.Error("function definition missing")
	}
	if got := strings.Join(names(u), ","); !strings.Contains(got, "outer") {
		t.Errorf("names: %s", got)
	}
}

func TestBlockCoverage(t *testing.T) {
	tool := core.New(core.Config{FS: preprocessor.MapFS{"main.c": `
#ifdef A
int a;
#else
int b;
#endif
#ifdef B
int c;
#ifdef C
int d;
#endif
#endif
`}})
	res, err := tool.ParseFile("main.c")
	if err != nil {
		t.Fatal(err)
	}
	s := tool.Space()
	// Blocks: A-branch, else-branch, B-branch, C-branch = 4.
	enabled, total := BlockCoverage(s, res.Unit.EnsureSegments(), nil)
	if total != 4 {
		t.Fatalf("total blocks = %d, want 4", total)
	}
	if enabled != 1 { // only the else branch
		t.Errorf("no-config enabled = %d, want 1", enabled)
	}
	allYes := AllYes([]string{"(defined A)", "(defined B)", "(defined C)"})
	enabled, _ = BlockCoverage(s, res.Unit.EnsureSegments(), allYes)
	// allyes enables A-branch, B-branch, C-branch but NOT the else branch:
	// 3 of 4 — the single-configuration blindness the paper's intro cites.
	if enabled != 3 {
		t.Errorf("allyes enabled = %d, want 3", enabled)
	}
}

// TestAllYesUnderCoversCorpus reproduces the paper's §1 observation in
// miniature: the all-yes configuration leaves a meaningful fraction of the
// corpus's conditional blocks disabled.
func TestAllYesUnderCoversCorpus(t *testing.T) {
	c := corpus.Generate(corpus.Params{Seed: 4, CFiles: 8, GenHeaders: 8})
	tool := core.New(core.Config{FS: c.FS, IncludePaths: []string{"include", "include/gen", "include/linux"}})
	var vars []string
	for i := 0; i < 32; i++ {
		vars = append(vars, fmt.Sprintf("(defined CONFIG_F%02d)", i))
	}
	for _, extra := range []string{"CONFIG_64BIT", "CONFIG_KERNEL_MODE", "CONFIG_MODULES", "CONFIG_SLUB", "CONFIG_PLAT_B"} {
		vars = append(vars, "(defined "+extra+")")
	}
	allYes := AllYes(vars)
	enabledTotal, blocksTotal := 0, 0
	for _, cf := range c.CFiles {
		res, err := tool.ParseFile(cf)
		if err != nil {
			t.Fatal(err)
		}
		e, b := BlockCoverage(tool.Space(), res.Unit.EnsureSegments(), allYes)
		enabledTotal += e
		blocksTotal += b
	}
	if blocksTotal == 0 {
		t.Fatal("no conditional blocks in corpus")
	}
	frac := float64(enabledTotal) / float64(blocksTotal)
	t.Logf("allyes block coverage: %d/%d = %.0f%%", enabledTotal, blocksTotal, 100*frac)
	if frac >= 1.0 {
		t.Error("allyes should not cover every block (else branches exist)")
	}
	if frac < 0.3 {
		t.Errorf("allyes coverage suspiciously low: %.2f", frac)
	}
}

// TestConflictsInSATMode: the analyses that need only feasibility (not
// model counting) work over the TypeChef-style condition representation
// too.
func TestConflictsInSATMode(t *testing.T) {
	tool := core.New(core.Config{
		FS: preprocessor.MapFS{"main.c": `
#ifdef A
int dup(void) { return 1; }
#endif
#ifdef B
int dup(void) { return 2; }
#endif
`},
		CondMode: cond.ModeSAT,
	})
	u := parseUnit(t, tool, "main.c")
	if got := len(ConflictingDefinitions(u)); got != 1 {
		t.Errorf("conflicts = %d, want 1", got)
	}
}

func TestIndexLenAndSpace(t *testing.T) {
	u, tool := buildUnit(t, "int a = 1;\nint b = 2;\n")
	if got := len(Definitions(u)); got != 2 {
		t.Errorf("Len = %d", got)
	}
	if u.Space != tool.Space() {
		t.Error("Space accessor mismatch")
	}
	if got := len(names(u)); got != 2 {
		t.Errorf("Names = %d", got)
	}
}

// TestCorpusHasNoConflicts: the generated corpus must be a well-formed
// program family — no unit defines the same symbol twice under overlapping
// conditions.
func TestCorpusHasNoConflicts(t *testing.T) {
	c := corpus.Generate(corpus.Params{Seed: 12, CFiles: 10, GenHeaders: 10})
	tool := core.New(core.Config{FS: c.FS, IncludePaths: []string{"include", "include/gen", "include/linux"}})
	for _, cf := range c.CFiles {
		u := parseUnit(t, tool, cf)
		if conflicts := ConflictingDefinitions(u); len(conflicts) > 0 {
			t.Errorf("%s: %s defined twice under %s", cf,
				conflicts[0].Name, tool.Space().String(conflicts[0].Under))
		}
	}
}
