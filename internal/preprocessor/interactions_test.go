package preprocessor

import (
	"strings"
	"testing"

	"repro/internal/cond"
)

// TestInteractionMatrix covers the preprocessor rows of the paper's
// Table 1: one subtest per non-blank interaction cell, each asserting the
// implementation strategy the table prescribes. (The parser rows — FMLR
// fork/merge and conditional typedef tables — live in package fmlr's
// TestInteractionMatrixParser.)
func TestInteractionMatrix(t *testing.T) {
	type check func(t *testing.T)
	cells := []struct {
		row, column string
		run         check
	}{
		{
			"Macro (Un)Definition", "use conditional macro table",
			func(t *testing.T) {
				_, s, p := pp(t, map[string]string{"main.c": "#ifdef A\n#define M 1\n#endif\n"})
				di := p.Macros().DefinedInfo("M")
				if !s.Equal(di.Defined, s.Var("(defined A)")) {
					t.Errorf("M defined under %s, want exactly (defined A)", s.String(di.Defined))
				}
				if !s.Equal(di.Free, s.Not(s.Var("(defined A)"))) {
					t.Errorf("M free under %s, want !(defined A)", s.String(di.Free))
				}
			},
		},
		{
			"Macro (Un)Definition", "add multiple entries to macro table",
			func(t *testing.T) {
				_, _, p := pp(t, map[string]string{"main.c": "#ifdef A\n#define M 1\n#else\n#define M 2\n#endif\n"})
				if n := p.Macros().NumEntries("M"); n != 2 {
					t.Errorf("entries = %d, want 2", n)
				}
			},
		},
		{
			"Macro (Un)Definition", "do not expand until invocation",
			func(t *testing.T) {
				// The body of N references M before M is defined; expansion
				// at invocation time must see the later definition.
				u, _, _ := pp(t, map[string]string{"main.c": "#define N M\n#define M 7\nint x = N;\n"})
				if got := flatText(t, u.EnsureSegments()); got != "int x = 7 ;" {
					t.Errorf("got %q", got)
				}
			},
		},
		{
			"Macro (Un)Definition", "trim infeasible entries on redefinition",
			func(t *testing.T) {
				_, s, p := pp(t, map[string]string{"main.c": "#ifdef A\n#define M 1\n#endif\n#define M 2\n"})
				defs, free := p.Macros().Lookup("M", s.True())
				if len(defs) != 1 || !s.IsFalse(free) {
					t.Fatalf("defs=%d free=%s", len(defs), s.String(free))
				}
				if tokensText(defs[0].Def.Body) != "2" {
					t.Errorf("surviving body = %q", tokensText(defs[0].Def.Body))
				}
			},
		},
		{
			"Object-Like Invocations", "expand all definitions / ignore infeasible",
			func(t *testing.T) {
				u, s, _ := pp(t, map[string]string{"main.c": `
#ifdef A
#define M 1
#else
#define M 2
#endif
#ifdef A
int x = M;
#endif
`})
				// Inside the #ifdef A block only definition 1 is feasible.
				on := map[string]bool{"(defined A)": true}
				if got := textOf(s, u.EnsureSegments(), on); got != "int x = 1 ;" {
					t.Errorf("got %q", got)
				}
			},
		},
		{
			"Object-Like Invocations", "expand nested macros",
			func(t *testing.T) {
				u, _, _ := pp(t, map[string]string{"main.c": "#define A B\n#define B 3\nint x = A;\n"})
				if got := flatText(t, u.EnsureSegments()); got != "int x = 3 ;" {
					t.Errorf("got %q", got)
				}
			},
		},
		{
			"Object-Like Invocations", "ground truth for built-ins",
			func(t *testing.T) {
				u, _, _ := pp(t, map[string]string{"main.c": "long v = __STDC_VERSION__;\n"})
				if got := flatText(t, u.EnsureSegments()); got != "long v = 199901L ;" {
					t.Errorf("got %q", got)
				}
			},
		},
		{
			"Function-Like Invocations", "hoist conditionals around invocations",
			func(t *testing.T) {
				u, s, _ := pp(t, map[string]string{"main.c": `
#define F(x) ((x))
#ifdef K
#define G F
#endif
int v = G(9);
`})
				on := map[string]bool{"(defined K)": true}
				if got := textOf(s, u.EnsureSegments(), on); got != "int v = ( ( 9 ) ) ;" {
					t.Errorf("K: %q", got)
				}
				if got := textOf(s, u.EnsureSegments(), nil); got != "int v = G ( 9 ) ;" {
					t.Errorf("!K: %q", got)
				}
			},
		},
		{
			"Function-Like Invocations", "support differing argument numbers and variadics",
			func(t *testing.T) {
				u, s, _ := pp(t, map[string]string{"main.c": `
#ifdef W
#define GET(a, b, rest...) three(a, b, rest)
#else
#define GET(a) one(a)
#endif
int v = GET(1
#ifdef W
, 2, 3, 4
#endif
);
`})
				on := map[string]bool{"(defined W)": true}
				if got := textOf(s, u.EnsureSegments(), on); got != "int v = three ( 1 , 2 , 3 , 4 ) ;" {
					t.Errorf("W: %q", got)
				}
				if got := textOf(s, u.EnsureSegments(), nil); got != "int v = one ( 1 ) ;" {
					t.Errorf("!W: %q", got)
				}
			},
		},
		{
			"Token Pasting & Stringification", "apply pasting and stringification",
			func(t *testing.T) {
				u, _, _ := pp(t, map[string]string{"main.c": "#define J(a,b) a##b\n#define S(x) #x\nint J(x,1) = 0; char *s = S(hi);\n"})
				got := flatText(t, u.EnsureSegments())
				if !strings.Contains(got, "x1") || !strings.Contains(got, `"hi"`) {
					t.Errorf("got %q", got)
				}
			},
		},
		{
			"Token Pasting & Stringification", "hoist conditionals around pasting",
			func(t *testing.T) {
				u, s, _ := pp(t, map[string]string{"main.c": `
#ifdef B64
#define BITS 64
#else
#define BITS 32
#endif
#define MK2(x) t ## x
#define MK(x) MK2(x)
MK(BITS) v;
`})
				on := map[string]bool{"(defined B64)": true}
				if got := textOf(s, u.EnsureSegments(), on); got != "t64 v ;" {
					t.Errorf("64: %q", got)
				}
				if got := textOf(s, u.EnsureSegments(), nil); got != "t32 v ;" {
					t.Errorf("32: %q", got)
				}
			},
		},
		{
			"File Includes", "preprocess under presence conditions",
			func(t *testing.T) {
				u, s, _ := pp(t, map[string]string{
					"main.c": "#ifdef A\n#include \"h.h\"\n#endif\n",
					"h.h":    "int from_header;\n",
				})
				on := map[string]bool{"(defined A)": true}
				if got := textOf(s, u.EnsureSegments(), on); got != "int from_header ;" {
					t.Errorf("A: %q", got)
				}
				if got := textOf(s, u.EnsureSegments(), nil); got != "" {
					t.Errorf("!A: %q", got)
				}
			},
		},
		{
			"File Includes", "hoist conditionals around includes",
			func(t *testing.T) {
				u, s, _ := pp(t, map[string]string{
					"main.c": "#ifdef A\n#define H \"a.h\"\n#else\n#define H \"b.h\"\n#endif\n#include H\nint x = V;\n",
					"a.h":    "#define V 1\n",
					"b.h":    "#define V 2\n",
				})
				on := map[string]bool{"(defined A)": true}
				if got := textOf(s, u.EnsureSegments(), on); got != "int x = 1 ;" {
					t.Errorf("A: %q", got)
				}
				if got := textOf(s, u.EnsureSegments(), nil); got != "int x = 2 ;" {
					t.Errorf("!A: %q", got)
				}
			},
		},
		{
			"File Includes", "reinclude when guard macro is not false",
			func(t *testing.T) {
				u, _, _ := pp(t, map[string]string{
					"main.c": "#include \"g.h\"\n#undef G_H\n#include \"g.h\"\n",
					"g.h":    "#ifndef G_H\n#define G_H\nint decl;\n#endif\n",
				})
				if got := flatText(t, u.EnsureSegments()); got != "int decl ; int decl ;" {
					t.Errorf("got %q", got)
				}
			},
		},
		{
			"Static Conditionals", "conjoin presence conditions",
			func(t *testing.T) {
				u, s, _ := pp(t, map[string]string{"main.c": "#ifdef A\n#ifdef B\nint ab;\n#endif\n#endif\n"})
				only := map[string]bool{"(defined A)": true}
				both := map[string]bool{"(defined A)": true, "(defined B)": true}
				if got := textOf(s, u.EnsureSegments(), both); got != "int ab ;" {
					t.Errorf("A&B: %q", got)
				}
				if got := textOf(s, u.EnsureSegments(), only); got != "" {
					t.Errorf("A only: %q", got)
				}
			},
		},
		{
			"Conditional Expressions", "hoist conditionals around expressions",
			func(t *testing.T) {
				// §3.2's worked example: #if BITS_PER_LONG == 32 folds to
				// !defined(CONFIG_64BIT) after expansion and hoisting.
				u, s, _ := pp(t, map[string]string{"main.c": `
#ifdef CONFIG_64BIT
#define BPL 64
#else
#define BPL 32
#endif
#if BPL == 32
int narrow;
#endif
`})
				if got := textOf(s, u.EnsureSegments(), nil); got != "int narrow ;" {
					t.Errorf("32: %q", got)
				}
				on := map[string]bool{"(defined CONFIG_64BIT)": true}
				if got := textOf(s, u.EnsureSegments(), on); got != "" {
					t.Errorf("64: %q", got)
				}
			},
		},
		{
			"Conditional Expressions", "preserve order for non-boolean expressions",
			func(t *testing.T) {
				u, s, _ := pp(t, map[string]string{"main.c": "#if NR_CPUS < 256\nint small;\n#else\nint big;\n#endif\n"})
				// Both branches stay reachable under the opaque condition.
				low := map[string]bool{"(expr (NR_CPUS<256))": true}
				if got := textOf(s, u.EnsureSegments(), low); got != "int small ;" {
					t.Errorf("low: %q", got)
				}
				if got := textOf(s, u.EnsureSegments(), nil); got != "int big ;" {
					t.Errorf("high: %q", got)
				}
			},
		},
		{
			"Error Directives", "ignore erroneous branches",
			func(t *testing.T) {
				u, s, _ := pp(t, map[string]string{"main.c": "#ifdef BAD\n#error nope\nint junk;\n#else\nint fine;\n#endif\n"})
				on := map[string]bool{"(defined BAD)": true}
				if got := textOf(s, u.EnsureSegments(), on); got != "" {
					t.Errorf("error branch leaked: %q", got)
				}
				if got := textOf(s, u.EnsureSegments(), nil); got != "int fine ;" {
					t.Errorf("good branch: %q", got)
				}
			},
		},
		{
			"Line, Warning, & Pragma Directives", "treat as layout",
			func(t *testing.T) {
				s := newSpaceForTest()
				p := New(Options{Space: s, FS: MapFS(map[string]string{
					"main.c": "#pragma pack(1)\n#line 9\n#warning w\nint x;\n"})})
				u, err := p.Preprocess("main.c")
				if err != nil {
					t.Fatal(err)
				}
				if got := flatText(t, u.EnsureSegments()); got != "int x ;" {
					t.Errorf("got %q", got)
				}
				st := u.Stats
				if st.PragmaDirectives != 1 || st.LineDirectives != 1 || st.WarningDirectives != 1 {
					t.Errorf("stats: %+v", st)
				}
			},
		},
	}
	for _, cell := range cells {
		t.Run(cell.row+"/"+cell.column, cell.run)
	}
}

// newSpaceForTest returns a fresh BDD-backed condition space.
func newSpaceForTest() *cond.Space { return cond.NewSpace(cond.ModeBDD) }
