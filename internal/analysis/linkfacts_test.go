package analysis_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/link"
)

func extract(t *testing.T, file, src string) (*link.Facts, *core.Tool) {
	t.Helper()
	tool := core.New(core.Config{})
	res, err := tool.ParseString(file, src)
	if err != nil {
		t.Fatal(err)
	}
	facts := analysis.ExtractLinkFacts(&analysis.Unit{
		File:  file,
		Space: tool.Space(),
		AST:   res.AST,
		PP:    res.Unit,
	})
	return facts, tool
}

func factsOf(f *link.Facts, name string) []link.Fact {
	for _, s := range f.Symbols {
		if s.Name == name {
			return s.Facts
		}
	}
	return nil
}

func kinds(fs []link.Fact) []link.FactKind {
	out := make([]link.FactKind, len(fs))
	for i, f := range fs {
		out[i] = f.Kind
	}
	return out
}

func TestExtractDefinitionKinds(t *testing.T) {
	f, _ := extract(t, "u.c", `
int defined_obj = 1;
int tentative_obj;
extern int declared_obj;
extern int extern_def = 2;
int proto(int a, int b);
int fn(void) { return 0; }
static int internal_obj = 3;
static void internal_fn(void) {}
typedef int my_t;
`)
	cases := map[string]link.FactKind{
		"defined_obj":   link.KindDef,
		"tentative_obj": link.KindTentative,
		"declared_obj":  link.KindDecl,
		"extern_def":    link.KindDef,
		"proto":         link.KindDecl,
		"fn":            link.KindDef,
	}
	for name, want := range cases {
		fs := factsOf(f, name)
		if len(fs) != 1 {
			t.Errorf("%s: facts = %+v, want exactly one", name, fs)
			continue
		}
		if fs[0].Kind != want {
			t.Errorf("%s: kind = %v, want %v", name, fs[0].Kind, want)
		}
	}
	for _, name := range []string{"internal_obj", "internal_fn", "my_t"} {
		if fs := factsOf(f, name); fs != nil {
			t.Errorf("internal name %s leaked facts: %+v", name, fs)
		}
	}
}

func TestExtractSignatures(t *testing.T) {
	f, _ := extract(t, "u.c", `
long counter;
int add(int a, int b);
int *head;
int table[4];
struct pt origin;
`)
	want := map[string]string{
		"counter": "long @",
		"add":     "int @ ( int , int )",
		"head":    "int * @",
		"table":   "int @ [ 4 ]",
		"origin":  "struct pt @",
	}
	for name, sig := range want {
		fs := factsOf(f, name)
		if len(fs) != 1 {
			t.Fatalf("%s: facts = %+v", name, fs)
		}
		if fs[0].Sig != sig {
			t.Errorf("%s: sig = %q, want %q", name, fs[0].Sig, sig)
		}
	}
}

func TestExtractParamNamesElided(t *testing.T) {
	a, _ := extract(t, "a.c", `int add(int first, int second);`)
	b, _ := extract(t, "b.c", `int add(int x, int y) { return x + y; }`)
	fa, fb := factsOf(a, "add"), factsOf(b, "add")
	if len(fa) != 1 || len(fb) != 1 {
		t.Fatalf("facts: %+v / %+v", fa, fb)
	}
	if fa[0].Sig != fb[0].Sig {
		t.Errorf("param names changed the signature: %q vs %q", fa[0].Sig, fb[0].Sig)
	}
}

func TestExtractRefs(t *testing.T) {
	f, tool := extract(t, "u.c", `
extern int other;
static int internal = 1;
enum color { RED, GREEN };
int local_fn(int param) {
  int local = param;
  return other + internal + local + RED + helper();
}
`)
	// other: extern decl plus a ref from the body.
	fs := factsOf(f, "other")
	if len(fs) != 2 || fs[0].Kind != link.KindDecl || fs[1].Kind != link.KindRef {
		t.Fatalf("other: kinds = %v, want [decl ref]", kinds(fs))
	}
	// helper: pure ref, no declaration anywhere in the unit.
	fs = factsOf(f, "helper")
	if len(fs) != 1 || fs[0].Kind != link.KindRef {
		t.Fatalf("helper: %+v", fs)
	}
	// Locals, params, statics, and enumerators never escape.
	for _, name := range []string{"internal", "local", "param", "RED", "GREEN"} {
		for _, fa := range factsOf(f, name) {
			t.Errorf("%s escaped as %v fact", name, fa.Kind)
		}
	}
	_ = tool
}

func TestExtractConditionalFacts(t *testing.T) {
	f, tool := extract(t, "u.c", `
#ifdef CONFIG_WORK
int work(void) { return 0; }
#endif
int use(void) { return work(); }
`)
	s := tool.Space()
	im := s.NewImporter()
	fs := factsOf(f, "work")
	if len(fs) != 2 {
		t.Fatalf("work: %+v", fs)
	}
	def, ref := fs[0], fs[1]
	if def.Kind != link.KindDef || ref.Kind != link.KindRef {
		t.Fatalf("kinds = %v, want [def ref]", kinds(fs))
	}
	w := s.Var("(defined CONFIG_WORK)")
	if !s.Equal(im.Import(def.Cond), w) {
		t.Errorf("def cond = %s, want (defined CONFIG_WORK)", def.Cond)
	}
	if !s.IsTrue(im.Import(ref.Cond)) {
		t.Errorf("ref cond = %s, want 1", ref.Cond)
	}
}

func TestExtractConditionalStatic(t *testing.T) {
	// static only under A: the symbol is external (and tentative) under !A.
	f, tool := extract(t, "u.c", `
#ifdef A
static
#endif
int maybe_static;
`)
	s := tool.Space()
	fs := factsOf(f, "maybe_static")
	if len(fs) != 1 || fs[0].Kind != link.KindTentative {
		t.Fatalf("maybe_static: %+v", fs)
	}
	got := s.NewImporter().Import(fs[0].Cond)
	if !s.Equal(got, s.Not(s.Var("(defined A)"))) {
		t.Errorf("cond = %s, want !(defined A)", fs[0].Sig)
	}
}

func TestExtractConditionalType(t *testing.T) {
	f, _ := extract(t, "u.c", `
#ifdef WIDE
long
#else
int
#endif
size_value;
`)
	fs := factsOf(f, "size_value")
	if len(fs) != 2 {
		t.Fatalf("size_value: %+v", fs)
	}
	sigs := map[string]bool{}
	for _, fa := range fs {
		sigs[fa.Sig] = true
	}
	if !sigs["long @"] || !sigs["int @"] {
		t.Errorf("sigs = %v, want both variants", sigs)
	}
}

func TestExtractFunctionPointerIsObject(t *testing.T) {
	f, _ := extract(t, "u.c", `int (*handler)(int);`)
	fs := factsOf(f, "handler")
	if len(fs) != 1 || fs[0].Kind != link.KindTentative {
		t.Fatalf("function pointer should be a tentative object: %+v", fs)
	}
}

func TestExtractFileScopeInitializerRefs(t *testing.T) {
	f, _ := extract(t, "u.c", `int *p = &target;`)
	fs := factsOf(f, "target")
	if len(fs) != 1 || fs[0].Kind != link.KindRef {
		t.Fatalf("target: %+v", fs)
	}
}

func TestExtractEmptyUnit(t *testing.T) {
	facts := analysis.ExtractLinkFacts(&analysis.Unit{File: "e.c", Space: core.New(core.Config{}).Space()})
	if facts == nil || len(facts.Symbols) != 0 {
		t.Fatalf("facts = %+v", facts)
	}
}

// End-to-end: extract two units and link them; all three families appear
// with verified witnesses.
func TestExtractAndLink(t *testing.T) {
	a, _ := extract(t, "a.c", `
extern int size;
int use(void) { return helper() + size; }
int init(void) { return 0; }
`)
	b, _ := extract(t, "b.c", `
#ifdef BIG
long size = 1;
#else
int size = 1;
#endif
#ifdef DUP
int init(void) { return 1; }
#endif
#ifdef HAVE_HELPER
int helper(void) { return 2; }
#endif
`)
	r := link.Link([]*link.Facts{a, b}, nil)
	got := map[string]int{}
	for _, f := range r.Findings {
		got[f.Family+"/"+f.Symbol]++
		if !f.WitnessVerified {
			t.Errorf("unverified witness: %+v", f)
		}
	}
	if got["undef-ref/helper"] == 0 {
		t.Errorf("missing undef-ref for helper: %v", got)
	}
	if got["multidef/init"] == 0 {
		t.Errorf("missing multidef for init: %v", got)
	}
	if got["type-mismatch/size"] == 0 {
		t.Errorf("missing type-mismatch for size: %v", got)
	}
	if got["undef-ref/size"] != 0 {
		t.Errorf("size is always defined; findings: %v", got)
	}
}

// gcc's keyword spellings are the keywords they spell: a declaration in
// glibc's __const/__volatile__/__signed__/__inline spelling links against
// the plain one without a type mismatch.
func TestLinkCanonicalKeywordSpellings(t *testing.T) {
	a, _ := extract(t, "a.c", `
extern const int x;
extern volatile signed char flag;
inline int twice(int v);
int use(void) { return x + flag + twice(1); }
`)
	b, _ := extract(t, "b.c", `
__const int x = 1;
__volatile__ __signed__ char flag;
__inline int twice(int v) { return 2 * v; }
`)
	r := link.Link([]*link.Facts{a, b}, nil)
	for _, f := range r.Findings {
		t.Errorf("unexpected finding: %+v", f)
	}
}
