package fmlr

import (
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/cgrammar"
	"repro/internal/cond"
	"repro/internal/preprocessor"
)

// parseSATSrc parses with SAT-mode presence conditions (the TypeChef
// baseline's representation) for cross-mode checks.
func parseSATSrc(t *testing.T, src string, opts Options) (*Result, *cond.Space) {
	t.Helper()
	s := cond.NewSpace(cond.ModeSAT)
	p := preprocessor.New(preprocessor.Options{Space: s, FS: preprocessor.MapFS(map[string]string{"main.c": src})})
	u, err := p.Preprocess("main.c")
	if err != nil {
		t.Fatalf("preprocess: %v", err)
	}
	eng := New(s, cgrammar.MustLoad(), opts)
	return eng.Parse(u.EnsureSegments(), "main.c"), s
}

// TestSATModeParsesLikeBDDMode checks that the two presence-condition
// representations yield equivalent per-configuration projections.
func TestSATModeParsesLikeBDDMode(t *testing.T) {
	src := `
#ifdef A
int a;
#else
int b;
#endif
#ifdef B
long c;
#endif
int always;
`
	bres, bs := parseOK(t, src, OptAll)
	sres, ss := parseSATSrc(t, src, OptFollowOnly)
	if sres.AST == nil {
		t.Fatalf("SAT parse failed: %v", sres.Diags)
	}
	for bits := 0; bits < 4; bits++ {
		assign := map[string]bool{}
		if bits&1 != 0 {
			assign["(defined A)"] = true
		}
		if bits&2 != 0 {
			assign["(defined B)"] = true
		}
		want := projectTokens(bs, bres.AST, assign)
		got := projectTokens(ss, sres.AST, assign)
		if got != want {
			t.Errorf("config %02b: SAT %q vs BDD %q", bits, got, want)
		}
	}
}

func TestConditionalStructMembers(t *testing.T) {
	src := `
struct device {
	int id;
#ifdef CONFIG_PM
	int power_state;
#endif
	void *driver_data;
};
`
	res, s := parseOK(t, src, OptAll)
	on := map[string]bool{"(defined CONFIG_PM)": true}
	if got := projectTokens(s, res.AST, on); !strings.Contains(got, "power_state") {
		t.Errorf("PM member lost: %q", got)
	}
	if got := projectTokens(s, res.AST, nil); strings.Contains(got, "power_state") {
		t.Errorf("PM member leaked: %q", got)
	}
}

func TestConditionalEnumerators(t *testing.T) {
	src := `
enum hook {
	FIRST,
#ifdef EXTRA
	MIDDLE,
#endif
	LAST
};
`
	res, s := parseOK(t, src, OptAll)
	on := map[string]bool{"(defined EXTRA)": true}
	if got := projectTokens(s, res.AST, on); !strings.Contains(got, "MIDDLE") {
		t.Errorf("conditional enumerator lost: %q", got)
	}
	if got := projectTokens(s, res.AST, nil); strings.Contains(got, "MIDDLE") {
		t.Errorf("conditional enumerator leaked: %q", got)
	}
}

func TestConditionalParameters(t *testing.T) {
	// Differing parameter lists per configuration — a complete-list-member
	// merge case from §5.1.
	src := `
int probe(int dev
#ifdef CONFIG_EXTRA_ARG
, int flags
#endif
);
`
	res, s := parseOK(t, src, OptAll)
	on := map[string]bool{"(defined CONFIG_EXTRA_ARG)": true}
	if got := projectTokens(s, res.AST, on); !strings.Contains(got, "flags") {
		t.Errorf("extra parameter lost: %q", got)
	}
	if got := projectTokens(s, res.AST, nil); strings.Contains(got, "flags") {
		t.Errorf("extra parameter leaked: %q", got)
	}
}

func TestGnuConstructsUnderConditionals(t *testing.T) {
	src := `
#ifdef CONFIG_ALIGN
int buffer[16] __attribute__((aligned(64)));
#else
int buffer[16];
#endif
void flush(void)
{
#ifdef CONFIG_X86
	asm volatile("mfence" : : );
#endif
}
`
	res, s := parseOK(t, src, OptAll)
	on := map[string]bool{"(defined CONFIG_ALIGN)": true, "(defined CONFIG_X86)": true}
	got := projectTokens(s, res.AST, on)
	if !strings.Contains(got, "__attribute__") || !strings.Contains(got, "mfence") {
		t.Errorf("gnu constructs lost: %q", got)
	}
	if got := projectTokens(s, res.AST, nil); strings.Contains(got, "asm") {
		t.Errorf("asm leaked: %q", got)
	}
}

func TestDiagnosticsCarryConditions(t *testing.T) {
	src := `
#ifdef B1
int x = = 1;
#endif
#ifdef B2
int y = ( ;
#endif
int fine;
`
	res, s := parseSrc(t, map[string]string{"main.c": src}, OptAll)
	if len(res.Diags) < 2 {
		t.Fatalf("diags = %d, want >= 2", len(res.Diags))
	}
	b1 := s.Var("(defined B1)")
	b2 := s.Var("(defined B2)")
	saw1, saw2 := false, false
	for _, d := range res.Diags {
		if s.Implies(d.Cond, b1) {
			saw1 = true
		}
		if s.Implies(d.Cond, b2) {
			saw2 = true
		}
	}
	if !saw1 || !saw2 {
		t.Errorf("diagnostics conditions: %v", res.Diags)
	}
	// The error-free configuration survives.
	if res.AST == nil {
		t.Fatal("clean configuration lost")
	}
	if got := projectTokens(s, res.AST, nil); got != "int fine ;" {
		t.Errorf("clean config: %q", got)
	}
}

func TestDeepConditionalNesting(t *testing.T) {
	src := `
#ifdef L1
#ifdef L2
#ifdef L3
#ifdef L4
int deep;
#endif
#endif
#endif
#endif
int shallow;
`
	res, s := parseOK(t, src, OptAll)
	all := map[string]bool{
		"(defined L1)": true, "(defined L2)": true,
		"(defined L3)": true, "(defined L4)": true,
	}
	if got := projectTokens(s, res.AST, all); got != "int deep ; int shallow ;" {
		t.Errorf("all levels: %q", got)
	}
	partial := map[string]bool{"(defined L1)": true, "(defined L2)": true}
	if got := projectTokens(s, res.AST, partial); got != "int shallow ;" {
		t.Errorf("partial levels: %q", got)
	}
}

func TestChoiceNodeConditionsPartition(t *testing.T) {
	// Every choice node's alternatives must be pairwise disjoint (the
	// subparser invariant of §4.1 surfaced in the AST).
	src := `
#if defined(A)
int x = 1;
#elif defined(B)
int x = 2;
#else
int x = 3;
#endif
`
	res, s := parseOK(t, src, OptAll)
	ast.Walk(res.AST, func(n *ast.Node) bool {
		if n.Kind != ast.KindChoice {
			return true
		}
		for i := range n.Alts {
			for j := i + 1; j < len(n.Alts); j++ {
				if !s.Disjoint(n.Alts[i].Cond, n.Alts[j].Cond) {
					t.Errorf("overlapping alternatives: %s vs %s",
						s.String(n.Alts[i].Cond), s.String(n.Alts[j].Cond))
				}
			}
		}
		return true
	})
}

func TestStringsAcrossConditionals(t *testing.T) {
	// Adjacent string literal concatenation with a conditional piece.
	src := `
char *msg = "start "
#ifdef VERBOSE
"(verbose) "
#endif
"end";
`
	res, s := parseOK(t, src, OptAll)
	on := map[string]bool{"(defined VERBOSE)": true}
	if got := projectTokens(s, res.AST, on); !strings.Contains(got, `"(verbose) "`) {
		t.Errorf("verbose piece lost: %q", got)
	}
	if got := projectTokens(s, res.AST, nil); strings.Contains(got, "verbose") {
		t.Errorf("verbose piece leaked: %q", got)
	}
}

func TestSwitchBodyConditionals(t *testing.T) {
	src := `
void dispatch(int op)
{
	switch (op) {
	case 0:
		handle0();
		break;
#ifdef CONFIG_OP1
	case 1:
		handle1();
		break;
#endif
	default:
		break;
	}
}
`
	res, s := parseOK(t, src, OptAll)
	on := map[string]bool{"(defined CONFIG_OP1)": true}
	if got := projectTokens(s, res.AST, on); !strings.Contains(got, "case 1") {
		t.Errorf("conditional case lost: %q", got)
	}
	if got := projectTokens(s, res.AST, nil); strings.Contains(got, "handle1") {
		t.Errorf("conditional case leaked: %q", got)
	}
}

func TestScopedTypedefAcrossFunctions(t *testing.T) {
	// A typedef local to one function must not leak into the next.
	src := `
void f(void) { typedef int T; T x; }
void g(void) { int T; int p; T * p; }
`
	res, _ := parseOK(t, src, OptAll)
	proj := res.AST
	if len(ast.Find(proj, "BinaryExpr")) != 1 {
		t.Error("T * p in g() should be a multiplication (typedef out of scope)")
	}
}

func TestEmptyUnitUnderSomeConfig(t *testing.T) {
	// The whole file vanishes under !A; the empty translation unit must
	// still be accepted.
	src := `
#ifdef A
int only;
#endif
`
	res, s := parseOK(t, src, OptAll)
	if got := projectTokens(s, res.AST, map[string]bool{"(defined A)": true}); got != "int only ;" {
		t.Errorf("A: %q", got)
	}
	if got := projectTokens(s, res.AST, nil); got != "" {
		t.Errorf("!A: %q", got)
	}
}

func TestDesignatedInitializersUnderConditionals(t *testing.T) {
	// The idiom behind Figure 6 in modern kernels: conditional designated
	// initializer entries in an ops table.
	src := `
static struct file_operations fops = {
	.open = dev_open,
#ifdef CONFIG_COMPAT
	.compat_ioctl = dev_compat_ioctl,
#endif
	.release = dev_release,
};
`
	res, s := parseOK(t, src, OptAll)
	on := map[string]bool{"(defined CONFIG_COMPAT)": true}
	if got := projectTokens(s, res.AST, on); !strings.Contains(got, "compat_ioctl") {
		t.Errorf("compat entry lost: %q", got)
	}
	if got := projectTokens(s, res.AST, nil); strings.Contains(got, "compat_ioctl") {
		t.Errorf("compat entry leaked: %q", got)
	}
	if res.Stats.MaxSubparsers > 4 {
		t.Errorf("ops-table initializer needed %d subparsers", res.Stats.MaxSubparsers)
	}
}

func TestTypedefRegistrationForms(t *testing.T) {
	// Registration must see through pointer/paren/function declarators and
	// struct-typedef tails — the live counterpart of the static
	// classification used in cgrammar's tests.
	src := `
typedef int (*handler_fn)(int, void *);
static handler_fn handlers[8];
typedef struct rb_node {
	struct rb_node *left;
} rb_node_t;
static rb_node_t root;
typedef unsigned long uptr_t, *uptr_ptr_t;
uptr_t a;
uptr_ptr_t b;
`
	res, _ := parseOK(t, src, OptAll)
	uses := ast.Find(res.AST, "TypedefName")
	if len(uses) != 4 {
		t.Errorf("typedef-name uses: %d, want 4 (handler_fn, rb_node_t, uptr_t, uptr_ptr_t)", len(uses))
	}
}

// parsed is one parse result with the space its conditions live in.
type parsed struct {
	res *Result
	s   *cond.Space
}

// parseBothPaths parses src through Engine.Parse (the queue loop over the
// materialized forest) and ParseUnit (the stream, whose cursor takes the
// unconditional runs).
func parseBothPaths(t *testing.T, src string) map[string]parsed {
	t.Helper()
	files := map[string]string{"main.c": src}
	ref, sr := parseSrc(t, files, OptAll)
	str, ss := parseChunked(t, files, OptAll)
	return map[string]parsed{"Parse": {ref, sr}, "ParseUnit": {str, ss}}
}

// TestExtensionKeyword: gcc's __extension__ parses in its four prefix
// positions, both in unconditional code (the cursor's runs) and inside a
// conditional (the queue loop), and stays in the AST.
func TestExtensionKeyword(t *testing.T) {
	positions := map[string]string{
		"external": "__extension__ typedef unsigned long long u64;\nu64 big;\n",
		"block":    "int f(void)\n{\n\t__extension__ long long v = 1;\n\treturn v;\n}\n",
		"member":   "struct s {\n\t__extension__ long long wide;\n\tint narrow;\n};\n",
		"cast":     "int g(int a)\n{\n\treturn __extension__ (long)a + 1;\n}\n",
	}
	on := map[string]bool{"(defined A)": true}
	for name, body := range positions {
		for _, src := range []string{body, "#ifdef A\n" + body + "#endif\n"} {
			for path, p := range parseBothPaths(t, src) {
				if p.res.AST == nil || len(p.res.Diags) != 0 {
					t.Errorf("%s, %s: %q: diags %v", name, path, src, diagMsgs(p.res.Diags))
					continue
				}
				if got := projectTokens(p.s, p.res.AST, on); !strings.Contains(" "+got, " __extension__ ") {
					t.Errorf("%s, %s: __extension__ lost: %q", name, path, got)
				}
			}
		}
	}
}

// TestStrayTokensAreParseErrors: a token no rule accepts is a parse error
// on that token, not an identifier, on both parse paths.
func TestStrayTokensAreParseErrors(t *testing.T) {
	for _, stray := range []string{"@", "#", `\`} {
		src := "int ok;\nint " + stray + ";\n"
		for path, p := range parseBothPaths(t, src) {
			if len(p.res.Diags) != 1 || p.res.Diags[0].Tok.Text != stray {
				t.Errorf("%s: %q: diags %v, want one parse error on %s", path, src, diagMsgs(p.res.Diags), stray)
			}
		}
	}
}
