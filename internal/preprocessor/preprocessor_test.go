package preprocessor

import (
	"strings"
	"testing"

	"repro/internal/cond"
	"repro/internal/lexer"
	"repro/internal/token"
)

// pp preprocesses main.c from the given in-memory tree in
// configuration-preserving mode and returns the unit and its space.
func pp(t *testing.T, files map[string]string) (*Unit, *cond.Space, *Preprocessor) {
	t.Helper()
	s := cond.NewSpace(cond.ModeBDD)
	p := New(Options{Space: s, FS: MapFS(files), IncludePaths: []string{"include"}})
	u, err := p.Preprocess("main.c")
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	for _, d := range u.Diags {
		if !d.Warning {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	return u, s, p
}

// ppSingle preprocesses in single-configuration mode with -D definitions.
func ppSingle(t *testing.T, files map[string]string, defines map[string]string) *Unit {
	t.Helper()
	s := cond.NewSpace(cond.ModeBDD)
	p := New(Options{Space: s, FS: MapFS(files), IncludePaths: []string{"include"}, SingleConfig: true})
	for n, v := range defines {
		if err := p.Define(n, v); err != nil {
			t.Fatal(err)
		}
	}
	u, err := p.PreprocessKeepTable("main.c")
	if err != nil {
		t.Fatalf("Preprocess(single): %v", err)
	}
	return u
}

// textOf joins all ordinary token texts under the given assignment.
func textOf(s *cond.Space, segs []Segment, assign map[string]bool) string {
	toks := Tokens(s, segs, assign)
	parts := make([]string, len(toks))
	for i, t := range toks {
		parts[i] = t.Text
	}
	return strings.Join(parts, " ")
}

// flatText joins all tokens assuming no conditionals remain.
func flatText(t *testing.T, segs []Segment) string {
	t.Helper()
	var parts []string
	for _, sg := range segs {
		if !sg.IsToken() {
			t.Fatalf("unexpected conditional in output")
		}
		parts = append(parts, sg.Tok.Text)
	}
	return strings.Join(parts, " ")
}

func TestPassthrough(t *testing.T) {
	u, _, _ := pp(t, map[string]string{"main.c": "int x = 1;\nreturn x;\n"})
	if got := flatText(t, u.EnsureSegments()); got != "int x = 1 ; return x ;" {
		t.Errorf("got %q", got)
	}
}

func TestObjectMacro(t *testing.T) {
	u, _, _ := pp(t, map[string]string{"main.c": "#define N 42\nint x = N;\n"})
	if got := flatText(t, u.EnsureSegments()); got != "int x = 42 ;" {
		t.Errorf("got %q", got)
	}
}

func TestNestedObjectMacros(t *testing.T) {
	u, _, _ := pp(t, map[string]string{"main.c": "#define A B\n#define B C\n#define C 7\nint x = A;\n"})
	if got := flatText(t, u.EnsureSegments()); got != "int x = 7 ;" {
		t.Errorf("got %q", got)
	}
}

func TestSelfReferentialMacroTerminates(t *testing.T) {
	u, _, _ := pp(t, map[string]string{"main.c": "#define X X + 1\nint v = X;\n"})
	if got := flatText(t, u.EnsureSegments()); got != "int v = X + 1 ;" {
		t.Errorf("got %q", got)
	}
}

func TestMutuallyRecursiveMacrosTerminate(t *testing.T) {
	u, _, _ := pp(t, map[string]string{"main.c": "#define A B\n#define B A\nint v = A;\n"})
	if got := flatText(t, u.EnsureSegments()); got != "int v = A ;" {
		t.Errorf("got %q", got)
	}
}

func TestFunctionMacro(t *testing.T) {
	u, _, _ := pp(t, map[string]string{"main.c": "#define MAX(a, b) ((a) > (b) ? (a) : (b))\nint m = MAX(x, y + 1);\n"})
	want := "int m = ( ( x ) > ( y + 1 ) ? ( x ) : ( y + 1 ) ) ;"
	if got := flatText(t, u.EnsureSegments()); got != want {
		t.Errorf("got %q\nwant %q", got, want)
	}
}

func TestFunctionMacroNestedParens(t *testing.T) {
	u, _, _ := pp(t, map[string]string{"main.c": "#define F(x) [x]\nint m = F(g(a, b));\n"})
	if got := flatText(t, u.EnsureSegments()); got != "int m = [ g ( a , b ) ] ;" {
		t.Errorf("got %q", got)
	}
}

func TestFunctionMacroMultiline(t *testing.T) {
	// Invocation arguments may span lines: newlines are just whitespace.
	u, _, _ := pp(t, map[string]string{"main.c": "#define ADD(a, b) a + b\nint m = ADD(1,\n2);\n"})
	if got := flatText(t, u.EnsureSegments()); got != "int m = 1 + 2 ;" {
		t.Errorf("got %q", got)
	}
}

func TestFunctionMacroNameWithoutArgsStays(t *testing.T) {
	u, _, _ := pp(t, map[string]string{"main.c": "#define F(x) x\nint (*p)(int) = F;\nint q = F(3);\n"})
	if got := flatText(t, u.EnsureSegments()); got != "int ( * p ) ( int ) = F ; int q = 3 ;" {
		t.Errorf("got %q", got)
	}
}

func TestArgumentsExpandBeforeSubstitution(t *testing.T) {
	u, _, _ := pp(t, map[string]string{"main.c": "#define ONE 1\n#define ID(x) x\nint v = ID(ONE);\n"})
	if got := flatText(t, u.EnsureSegments()); got != "int v = 1 ;" {
		t.Errorf("got %q", got)
	}
}

func TestRescanExpandsResult(t *testing.T) {
	u, _, _ := pp(t, map[string]string{"main.c": "#define CALL(f) f(7)\n#define INC(x) x + 1\nint v = CALL(INC);\n"})
	if got := flatText(t, u.EnsureSegments()); got != "int v = 7 + 1 ;" {
		t.Errorf("got %q", got)
	}
}

func TestStringify(t *testing.T) {
	u, _, _ := pp(t, map[string]string{"main.c": "#define STR(x) #x\nchar *s = STR(a + b);\n"})
	if got := flatText(t, u.EnsureSegments()); got != `char * s = "a + b" ;` {
		t.Errorf("got %q", got)
	}
}

func TestStringifyEscapes(t *testing.T) {
	u, _, _ := pp(t, map[string]string{"main.c": "#define STR(x) #x\nchar *s = STR(\"q\");\n"})
	if got := flatText(t, u.EnsureSegments()); got != `char * s = "\"q\"" ;` {
		t.Errorf("got %q", got)
	}
}

func TestTokenPasting(t *testing.T) {
	u, _, _ := pp(t, map[string]string{"main.c": "#define GLUE(a, b) a ## b\nint GLUE(foo, bar) = 1;\n"})
	if got := flatText(t, u.EnsureSegments()); got != "int foobar = 1 ;" {
		t.Errorf("got %q", got)
	}
}

func TestTokenPastingNumbers(t *testing.T) {
	u, _, _ := pp(t, map[string]string{"main.c": "#define GLUE(a, b) a ## b\nint v = GLUE(1, 2);\n"})
	if got := flatText(t, u.EnsureSegments()); got != "int v = 12 ;" {
		t.Errorf("got %q", got)
	}
}

func TestPastedTokenNotReexpanded(t *testing.T) {
	// Pasting forms the name of an object-like macro; cpp rescans and
	// expands it.
	u, _, _ := pp(t, map[string]string{"main.c": "#define AB 99\n#define GLUE(a, b) a ## b\nint v = GLUE(A, B);\n"})
	if got := flatText(t, u.EnsureSegments()); got != "int v = 99 ;" {
		t.Errorf("got %q", got)
	}
}

func TestVariadicMacro(t *testing.T) {
	u, _, _ := pp(t, map[string]string{"main.c": "#define P(fmt, ...) printf(fmt, __VA_ARGS__)\nP(\"%d\", 1, 2);\n"})
	if got := flatText(t, u.EnsureSegments()); got != `printf ( "%d" , 1 , 2 ) ;` {
		t.Errorf("got %q", got)
	}
}

func TestGccNamedVariadic(t *testing.T) {
	u, _, _ := pp(t, map[string]string{"main.c": "#define P(fmt, args...) printf(fmt, args)\nP(\"%d\", 1, 2);\n"})
	if got := flatText(t, u.EnsureSegments()); got != `printf ( "%d" , 1 , 2 ) ;` {
		t.Errorf("got %q", got)
	}
}

func TestUndef(t *testing.T) {
	u, _, _ := pp(t, map[string]string{"main.c": "#define N 1\nint a = N;\n#undef N\nint b = N;\n"})
	if got := flatText(t, u.EnsureSegments()); got != "int a = 1 ; int b = N ;" {
		t.Errorf("got %q", got)
	}
}

func TestBuiltins(t *testing.T) {
	u, _, _ := pp(t, map[string]string{"main.c": "long v = __STDC__;\nint l = __LINE__;\nchar *f = __FILE__;\n"})
	got := flatText(t, u.EnsureSegments())
	if !strings.Contains(got, "long v = 1 ;") {
		t.Errorf("__STDC__: %q", got)
	}
	if !strings.Contains(got, "int l = 2 ;") {
		t.Errorf("__LINE__: %q", got)
	}
	if !strings.Contains(got, `char * f = "main.c" ;`) {
		t.Errorf("__FILE__: %q", got)
	}
}

func TestConditionalStructure(t *testing.T) {
	u, s, _ := pp(t, map[string]string{"main.c": `
int before;
#ifdef CONFIG_A
int a;
#else
int b;
#endif
int after;
`})
	da := map[string]bool{"(defined CONFIG_A)": true}
	notA := map[string]bool{}
	if got := textOf(s, u.EnsureSegments(), da); got != "int before ; int a ; int after ;" {
		t.Errorf("A set: %q", got)
	}
	if got := textOf(s, u.EnsureSegments(), notA); got != "int before ; int b ; int after ;" {
		t.Errorf("A clear: %q", got)
	}
	if u.Stats.Conditionals != 1 {
		t.Errorf("Conditionals = %d", u.Stats.Conditionals)
	}
}

func TestElifChain(t *testing.T) {
	u, s, _ := pp(t, map[string]string{"main.c": `
#if defined(A)
int x = 1;
#elif defined(B)
int x = 2;
#elif defined(C)
int x = 3;
#else
int x = 4;
#endif
`})
	cases := []struct {
		assign map[string]bool
		want   string
	}{
		{map[string]bool{"(defined A)": true}, "int x = 1 ;"},
		{map[string]bool{"(defined B)": true}, "int x = 2 ;"},
		{map[string]bool{"(defined A)": true, "(defined B)": true}, "int x = 1 ;"},
		{map[string]bool{"(defined C)": true}, "int x = 3 ;"},
		{map[string]bool{}, "int x = 4 ;"},
	}
	for _, c := range cases {
		if got := textOf(s, u.EnsureSegments(), c.assign); got != c.want {
			t.Errorf("%v: got %q, want %q", c.assign, got, c.want)
		}
	}
}

func TestNestedConditionals(t *testing.T) {
	u, s, _ := pp(t, map[string]string{"main.c": `
#ifdef A
#ifdef B
int ab;
#endif
int a;
#endif
`})
	both := map[string]bool{"(defined A)": true, "(defined B)": true}
	onlyA := map[string]bool{"(defined A)": true}
	if got := textOf(s, u.EnsureSegments(), both); got != "int ab ; int a ;" {
		t.Errorf("both: %q", got)
	}
	if got := textOf(s, u.EnsureSegments(), onlyA); got != "int a ;" {
		t.Errorf("only A: %q", got)
	}
	if got := textOf(s, u.EnsureSegments(), nil); got != "" {
		t.Errorf("neither: %q", got)
	}
	if u.Stats.MaxCondDepth != 2 {
		t.Errorf("MaxCondDepth = %d", u.Stats.MaxCondDepth)
	}
}

func TestInfeasibleBranchSkipped(t *testing.T) {
	// #ifdef A / #ifndef A nesting: the inner else is infeasible and its
	// content must not appear under any configuration.
	u, s, _ := pp(t, map[string]string{"main.c": `
#ifdef A
#ifndef A
int impossible;
#endif
int a;
#endif
`})
	for _, assign := range []map[string]bool{nil, {"(defined A)": true}} {
		if got := textOf(s, u.EnsureSegments(), assign); strings.Contains(got, "impossible") {
			t.Errorf("infeasible code surfaced under %v: %q", assign, got)
		}
	}
}

// TestMultiplyDefinedMacro reproduces paper Figure 2: BITS_PER_LONG defined
// differently in the two branches of CONFIG_64BIT; a use propagates the
// implicit conditional.
func TestMultiplyDefinedMacro(t *testing.T) {
	u, s, _ := pp(t, map[string]string{"main.c": `
#ifdef CONFIG_64BIT
#define BITS_PER_LONG 64
#else
#define BITS_PER_LONG 32
#endif
int bits = BITS_PER_LONG;
`})
	on := map[string]bool{"(defined CONFIG_64BIT)": true}
	if got := textOf(s, u.EnsureSegments(), on); got != "int bits = 64 ;" {
		t.Errorf("64-bit: %q", got)
	}
	if got := textOf(s, u.EnsureSegments(), nil); got != "int bits = 32 ;" {
		t.Errorf("32-bit: %q", got)
	}
	if u.Stats.TrimmedInvocations == 0 {
		t.Error("multiply-defined use did not count as trimmed invocation")
	}
}

// TestConditionalExpressionFolding reproduces §3.2's example: after
// expanding BITS_PER_LONG and hoisting, "#if BITS_PER_LONG == 32" must
// simplify to !defined(CONFIG_64BIT).
func TestConditionalExpressionFolding(t *testing.T) {
	u, s, _ := pp(t, map[string]string{"main.c": `
#ifdef CONFIG_64BIT
#define BITS_PER_LONG 64
#else
#define BITS_PER_LONG 32
#endif
#if BITS_PER_LONG == 32
int narrow;
#endif
`})
	if got := textOf(s, u.EnsureSegments(), nil); got != "int narrow ;" {
		t.Errorf("32-bit config: %q", got)
	}
	on := map[string]bool{"(defined CONFIG_64BIT)": true}
	if got := textOf(s, u.EnsureSegments(), on); got != "" {
		t.Errorf("64-bit config: %q", got)
	}
}

// TestConditionalFunctionLikeHoisting reproduces paper Figures 3-4:
// cpu_to_le32 conditionally expands to a function-like macro whose argument
// list follows the conditional; hoisting duplicates (val) into both
// branches.
func TestConditionalFunctionLikeHoisting(t *testing.T) {
	u, s, _ := pp(t, map[string]string{"main.c": `
#define __cpu_to_le32(x) ((__le32)(__u32)(x))
#ifdef __KERNEL__
#define cpu_to_le32 __cpu_to_le32
#endif
put_user(cpu_to_le32(val), buf);
`})
	kern := map[string]bool{"(defined __KERNEL__)": true}
	want := "put_user ( ( ( __le32 ) ( __u32 ) ( val ) ) , buf ) ;"
	if got := textOf(s, u.EnsureSegments(), kern); got != want {
		t.Errorf("kernel config:\n got %q\nwant %q", got, want)
	}
	wantUser := "put_user ( cpu_to_le32 ( val ) , buf ) ;"
	if got := textOf(s, u.EnsureSegments(), nil); got != wantUser {
		t.Errorf("user config:\n got %q\nwant %q", got, wantUser)
	}
	if u.Stats.HoistedInvocations == 0 {
		t.Error("expected a hoisted invocation")
	}
}

// TestTokenPastingHoisting reproduces paper Figure 5: pasting __le ##
// BITS_PER_LONG where BITS_PER_LONG is multiply-defined hoists the
// conditional around the pasting.
func TestTokenPastingHoisting(t *testing.T) {
	u, s, _ := pp(t, map[string]string{"main.c": `
#ifdef CONFIG_64BIT
#define BITS_PER_LONG 64
#else
#define BITS_PER_LONG 32
#endif
#define uintBPL_t uint(BITS_PER_LONG)
#define uint(x) xuint(x)
#define xuint(x) __le ## x
uintBPL_t *p;
`})
	on := map[string]bool{"(defined CONFIG_64BIT)": true}
	if got := textOf(s, u.EnsureSegments(), on); got != "__le64 * p ;" {
		t.Errorf("64-bit: %q", got)
	}
	if got := textOf(s, u.EnsureSegments(), nil); got != "__le32 * p ;" {
		t.Errorf("32-bit: %q", got)
	}
	// The conditional is hoisted either around the pasting itself or around
	// the enclosing function-like invocation, depending on where the
	// expansion encounters it; both preserve Figure 5's semantics.
	if u.Stats.HoistedPastings == 0 && u.Stats.HoistedInvocations == 0 {
		t.Error("expected the conditional to be hoisted")
	}
}

// TestSourceConditionalInsideInvocation: an explicit #ifdef inside a
// function-like macro's argument list (Table 1: "Function-Like Macro
// Invocations / Contain Conditionals").
func TestSourceConditionalInsideInvocation(t *testing.T) {
	u, s, _ := pp(t, map[string]string{"main.c": `
#define WRAP(x) [ x ]
int v = WRAP(
#ifdef A
1
#else
2
#endif
);
`})
	on := map[string]bool{"(defined A)": true}
	if got := textOf(s, u.EnsureSegments(), on); got != "int v = [ 1 ] ;" {
		t.Errorf("A on: %q", got)
	}
	if got := textOf(s, u.EnsureSegments(), nil); got != "int v = [ 2 ] ;" {
		t.Errorf("A off: %q", got)
	}
}

// TestConditionalArgumentCount: branches change the number of arguments
// (Table 1: "Support differing argument numbers").
func TestConditionalArgumentCount(t *testing.T) {
	u, s, _ := pp(t, map[string]string{"main.c": `
#ifdef WIDE
#define GET(a, b) take2(a, b)
#else
#define GET(a) take1(a)
#endif
int v = GET(1
#ifdef WIDE
, 2
#endif
);
`})
	on := map[string]bool{"(defined WIDE)": true}
	if got := textOf(s, u.EnsureSegments(), on); got != "int v = take2 ( 1 , 2 ) ;" {
		t.Errorf("wide: %q", got)
	}
	if got := textOf(s, u.EnsureSegments(), nil); got != "int v = take1 ( 1 ) ;" {
		t.Errorf("narrow: %q", got)
	}
}

func TestInclude(t *testing.T) {
	u, _, _ := pp(t, map[string]string{
		"main.c": "#include \"defs.h\"\nint x = VALUE;\n",
		"defs.h": "#define VALUE 5\n",
	})
	if got := flatText(t, u.EnsureSegments()); got != "int x = 5 ;" {
		t.Errorf("got %q", got)
	}
	if u.Stats.Includes != 1 {
		t.Errorf("Includes = %d", u.Stats.Includes)
	}
}

func TestIncludeAngledSearchesPaths(t *testing.T) {
	u, _, _ := pp(t, map[string]string{
		"main.c":        "#include <sys.h>\nint x = SYS;\n",
		"include/sys.h": "#define SYS 9\n",
	})
	if got := flatText(t, u.EnsureSegments()); got != "int x = 9 ;" {
		t.Errorf("got %q", got)
	}
}

func TestIncludeGuardSkip(t *testing.T) {
	u, _, _ := pp(t, map[string]string{
		"main.c": "#include \"g.h\"\n#include \"g.h\"\nint x = G;\n",
		"g.h":    "#ifndef G_H\n#define G_H\n#define G 3\n#endif\n",
	})
	if got := flatText(t, u.EnsureSegments()); got != "int x = 3 ;" {
		t.Errorf("got %q", got)
	}
	if u.Stats.GuardSkips != 1 {
		t.Errorf("GuardSkips = %d, want 1", u.Stats.GuardSkips)
	}
}

func TestReincludeAfterUndef(t *testing.T) {
	u, _, _ := pp(t, map[string]string{
		"main.c": "#include \"g.h\"\nint a = G;\n#undef G_H\n#undef G\n#include \"g.h\"\nint b = G;\n",
		"g.h":    "#ifndef G_H\n#define G_H\n#define G 3\n#endif\n",
	})
	if got := flatText(t, u.EnsureSegments()); got != "int a = 3 ; int b = 3 ;" {
		t.Errorf("got %q", got)
	}
	if u.Stats.ReincludedHeaders != 1 {
		t.Errorf("ReincludedHeaders = %d, want 1", u.Stats.ReincludedHeaders)
	}
}

func TestComputedInclude(t *testing.T) {
	u, _, _ := pp(t, map[string]string{
		"main.c": "#define HDR \"one.h\"\n#include HDR\nint x = ONE;\n",
		"one.h":  "#define ONE 1\n",
	})
	if got := flatText(t, u.EnsureSegments()); got != "int x = 1 ;" {
		t.Errorf("got %q", got)
	}
	if u.Stats.ComputedIncludes != 1 {
		t.Errorf("ComputedIncludes = %d", u.Stats.ComputedIncludes)
	}
}

func TestHoistedComputedInclude(t *testing.T) {
	u, s, _ := pp(t, map[string]string{
		"main.c": `
#ifdef B
#define HDR "two.h"
#else
#define HDR "one.h"
#endif
#include HDR
int x = VAL;
`,
		"one.h": "#define VAL 1\n",
		"two.h": "#define VAL 2\n",
	})
	on := map[string]bool{"(defined B)": true}
	if got := textOf(s, u.EnsureSegments(), on); got != "int x = 2 ;" {
		t.Errorf("B on: %q", got)
	}
	if got := textOf(s, u.EnsureSegments(), nil); got != "int x = 1 ;" {
		t.Errorf("B off: %q", got)
	}
	if u.Stats.HoistedIncludes != 1 {
		t.Errorf("HoistedIncludes = %d", u.Stats.HoistedIncludes)
	}
}

func TestErrorDirectiveMakesBranchInfeasible(t *testing.T) {
	u, s, _ := pp(t, map[string]string{"main.c": `
#ifdef BROKEN
#error this configuration is unsupported
int junk;
#else
int good;
#endif
`})
	on := map[string]bool{"(defined BROKEN)": true}
	if got := textOf(s, u.EnsureSegments(), on); got != "" {
		t.Errorf("error branch surfaced content: %q", got)
	}
	if got := textOf(s, u.EnsureSegments(), nil); got != "int good ;" {
		t.Errorf("good branch: %q", got)
	}
	if u.Stats.ErrorDirectives != 1 {
		t.Errorf("ErrorDirectives = %d", u.Stats.ErrorDirectives)
	}
}

func TestTopLevelErrorIsDiagnostic(t *testing.T) {
	s := cond.NewSpace(cond.ModeBDD)
	// The message keeps the source's bytes, non-ASCII ones included.
	p := New(Options{Space: s, FS: MapFS(map[string]string{"main.c": "#error boom café\n"})})
	u, err := p.Preprocess("main.c")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range u.Diags {
		if !d.Warning && strings.Contains(d.Msg, "#error boom café") {
			found = true
		}
	}
	if !found {
		t.Error("top-level #error not reported")
	}
}

func TestWarningPragmaLine(t *testing.T) {
	s := cond.NewSpace(cond.ModeBDD)
	p := New(Options{Space: s, FS: MapFS(map[string]string{
		"main.c": "#warning msg\n#pragma pack(1)\n#line 100\nint x;\n"})})
	u, err := p.Preprocess("main.c")
	if err != nil {
		t.Fatal(err)
	}
	if u.Stats.WarningDirectives != 1 || u.Stats.PragmaDirectives != 1 || u.Stats.LineDirectives != 1 {
		t.Errorf("stats = %+v", u.Stats)
	}
}

func TestIfdefDefinedInteraction(t *testing.T) {
	// defined() must see macros defined under conditions.
	u, s, _ := pp(t, map[string]string{"main.c": `
#ifdef A
#define HAS_A_FEATURE 1
#endif
#if defined(HAS_A_FEATURE)
int feature;
#endif
`})
	on := map[string]bool{"(defined A)": true}
	if got := textOf(s, u.EnsureSegments(), on); got != "int feature ;" {
		t.Errorf("A on: %q", got)
	}
	if got := textOf(s, u.EnsureSegments(), nil); got != "" {
		t.Errorf("A off: %q", got)
	}
}

func TestNonBooleanExpressionPreserved(t *testing.T) {
	u, s, _ := pp(t, map[string]string{"main.c": `
#if NR_CPUS < 256
typedef char ticket_t;
#else
typedef short ticket_t;
#endif
`})
	if u.Stats.NonBooleanExprs == 0 {
		t.Error("non-boolean expression not counted")
	}
	// Both branches must remain reachable (opaque condition).
	small := map[string]bool{"(expr (NR_CPUS<256))": true}
	if got := textOf(s, u.EnsureSegments(), small); got != "typedef char ticket_t ;" {
		t.Errorf("small: %q", got)
	}
	if got := textOf(s, u.EnsureSegments(), nil); got != "typedef short ticket_t ;" {
		t.Errorf("large: %q", got)
	}
}

func TestSingleConfigMode(t *testing.T) {
	files := map[string]string{"main.c": `
#ifdef CONFIG_A
int a;
#else
int b;
#endif
#if VALUE == 3
int three;
#endif
`}
	u := ppSingle(t, files, map[string]string{"CONFIG_A": "1", "VALUE": "3"})
	if got := flatText(t, u.EnsureSegments()); got != "int a ; int three ;" {
		t.Errorf("got %q", got)
	}
	u = ppSingle(t, files, nil)
	if got := flatText(t, u.EnsureSegments()); got != "int b ;" {
		t.Errorf("got %q", got)
	}
}

// TestDifferentialSingleVsPreserving cross-validates the
// configuration-preserving output against single-configuration
// preprocessing for every configuration of a small but feature-rich program
// — the analogue of the paper's gcc -E comparison.
func TestDifferentialSingleVsPreserving(t *testing.T) {
	files := map[string]string{
		"main.c": `
#include "conf.h"
#if defined(CONFIG_X)
#define WIDTH 64
#else
#define WIDTH 32
#endif
#define PASTE(a, b) a ## b
#define STR(x) #x
int width = WIDTH;
typedef int PASTE(int, WIDTH);
char *name = STR(WIDTH);
#ifdef CONFIG_Y
#if WIDTH == 64
long both;
#endif
int y = FEATURE(1);
#endif
#if WIDTH == 32 && !defined(CONFIG_Y)
short neither;
#endif
`,
		"conf.h": `
#ifndef CONF_H
#define CONF_H
#ifdef CONFIG_Y
#define FEATURE(x) ((x) + 100)
#else
#define FEATURE(x) (x)
#endif
#endif
`,
	}
	vars := []string{"CONFIG_X", "CONFIG_Y"}
	u, s, _ := pp(t, files)
	for bits := 0; bits < 1<<len(vars); bits++ {
		defines := map[string]string{}
		assign := map[string]bool{}
		for i, v := range vars {
			if bits&(1<<i) != 0 {
				defines[v] = "1"
				assign["(defined "+v+")"] = true
			}
		}
		single := ppSingle(t, files, defines)
		wantToks := Tokens(s, single.EnsureSegments(), nil)
		gotToks := Tokens(s, u.EnsureSegments(), assign)
		want := make([]string, len(wantToks))
		for i, tk := range wantToks {
			want[i] = tk.Text
		}
		got := make([]string, len(gotToks))
		for i, tk := range gotToks {
			got[i] = tk.Text
		}
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("config %v:\npreserving: %s\nsingle:     %s",
				defines, strings.Join(got, " "), strings.Join(want, " "))
		}
	}
}

func TestMacroTableTrimming(t *testing.T) {
	_, s, p := pp(t, map[string]string{"main.c": `
#define M 1
#define M 2
int x = M;
`})
	// The second unconditional define must have trimmed the first entirely.
	if n := p.Macros().NumEntries("M"); n != 1 {
		t.Errorf("entries for M = %d, want 1", n)
	}
	defs, free := p.Macros().Lookup("M", s.True())
	if len(defs) != 1 || !s.IsFalse(free) {
		t.Errorf("lookup: %d defs, free=%s", len(defs), s.String(free))
	}
	if got := tokensText(defs[0].Def.Body); got != "2" {
		t.Errorf("body = %q", got)
	}
}

func TestDefineInsideConditionalCounts(t *testing.T) {
	u, _, _ := pp(t, map[string]string{"main.c": "#ifdef A\n#define X 1\n#endif\n"})
	if u.Stats.DefsInConditional != 1 {
		t.Errorf("DefsInConditional = %d", u.Stats.DefsInConditional)
	}
}

func TestGuardDetection(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"#ifndef FOO_H\n#define FOO_H\nint x;\n#endif\n", "FOO_H"},
		{"#if !defined(FOO_H)\n#define FOO_H\nint x;\n#endif\n", "FOO_H"},
		{"#if !defined FOO_H\n#define FOO_H\nint x;\n#endif\n", "FOO_H"},
		{"#ifndef FOO_H\n#define BAR_H\nint x;\n#endif\n", ""}, // wrong define
		{"#ifndef FOO_H\n#define FOO_H\n#endif\nint x;\n", ""}, // tokens after endif
		{"int x;\n#ifndef FOO_H\n#define FOO_H\n#endif\n", ""}, // tokens before
		{"#ifdef FOO_H\n#define FOO_H\n#endif\n", ""},          // ifdef, not ifndef
	}
	for i, c := range cases {
		toks := mustLexLines(t, c.src)
		if got := detectGuard(toks); got != c.want {
			t.Errorf("case %d: detectGuard = %q, want %q", i, got, c.want)
		}
	}
}

func mustLexLines(t *testing.T, src string) [][]token.Token {
	t.Helper()
	toks, err := lexAll(src)
	if err != nil {
		t.Fatal(err)
	}
	return splitLines(toks)
}

func TestHoistAlgorithm(t *testing.T) {
	s := cond.NewSpace(cond.ModeBDD)
	a := s.Var("A")
	tok := func(text string) Segment {
		return TokSeg(token.Token{Kind: token.Identifier, Text: text})
	}
	// x [A: p | else: q] y  →  (A: x p y), (!A: x q y)
	segs := []Segment{
		tok("x"),
		CondSeg(&Conditional{Branches: []Branch{
			{Cond: a, Segs: []Segment{tok("p")}},
			{Cond: s.Not(a), Segs: []Segment{tok("q")}},
		}}),
		tok("y"),
	}
	alts, ok := Hoist(s, s.True(), segs, 0)
	if !ok || len(alts) != 2 {
		t.Fatalf("Hoist: ok=%v, %d alts", ok, len(alts))
	}
	for _, alt := range alts {
		var texts []string
		for _, tk := range alt.Toks {
			texts = append(texts, tk.Text)
		}
		joined := strings.Join(texts, " ")
		switch {
		case s.Equal(alt.Cond, a):
			if joined != "x p y" {
				t.Errorf("A branch: %q", joined)
			}
		case s.Equal(alt.Cond, s.Not(a)):
			if joined != "x q y" {
				t.Errorf("!A branch: %q", joined)
			}
		default:
			t.Errorf("unexpected condition %s", s.String(alt.Cond))
		}
	}
}

func TestHoistImplicitBranch(t *testing.T) {
	s := cond.NewSpace(cond.ModeBDD)
	a := s.Var("A")
	tok := func(text string) Segment {
		return TokSeg(token.Token{Kind: token.Identifier, Text: text})
	}
	// [A: p] y with no else → (A: p y), (!A: y)
	segs := []Segment{
		CondSeg(&Conditional{Branches: []Branch{{Cond: a, Segs: []Segment{tok("p")}}}}),
		tok("y"),
	}
	alts, ok := Hoist(s, s.True(), segs, 0)
	if !ok || len(alts) != 2 {
		t.Fatalf("Hoist: ok=%v, %d alts", ok, len(alts))
	}
}

func TestHoistLimit(t *testing.T) {
	s := cond.NewSpace(cond.ModeBDD)
	var segs []Segment
	for i := 0; i < 12; i++ {
		v := s.Var("V" + string(rune('A'+i)))
		segs = append(segs, CondSeg(&Conditional{Branches: []Branch{
			{Cond: v, Segs: []Segment{TokSeg(token.Token{Kind: token.Identifier, Text: "x"})}},
		}}))
	}
	if _, ok := Hoist(s, s.True(), segs, 64); ok {
		t.Error("expected hoist limit to trip")
	}
}

// lexAll is a test helper around the lexer.
func lexAll(src string) ([]token.Token, error) {
	toks, err := lexer.Lex("test.h", []byte(src))
	if err != nil {
		return nil, err
	}
	return lexer.StripEOF(toks), nil
}
