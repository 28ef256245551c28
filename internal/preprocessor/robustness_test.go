package preprocessor

import (
	"strings"
	"testing"

	"repro/internal/cond"
)

func TestIncludeNext(t *testing.T) {
	// A wrapper header shadows the real one in an earlier include path and
	// defers to it with #include_next (gcc semantics).
	s := cond.NewSpace(cond.ModeBDD)
	p := New(Options{
		Space: s,
		FS: MapFS(map[string]string{
			"main.c":        "#include <limits.h>\nint max = PLATFORM_MAX + WRAPPED;\n",
			"wrap/limits.h": "#ifndef WRAP_LIMITS_H\n#define WRAP_LIMITS_H\n#define WRAPPED 1\n#include_next <limits.h>\n#endif\n",
			"sys/limits.h":  "#ifndef SYS_LIMITS_H\n#define SYS_LIMITS_H\n#define PLATFORM_MAX 100\n#endif\n",
		}),
		IncludePaths: []string{"wrap", "sys"},
	})
	u, err := p.Preprocess("main.c")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range u.Diags {
		if !d.Warning {
			t.Fatalf("diag: %s", d)
		}
	}
	if got := flatText(t, u.EnsureSegments()); got != "int max = 100 + 1 ;" {
		t.Errorf("got %q", got)
	}
}

func TestCounterBuiltin(t *testing.T) {
	u, _, _ := pp(t, map[string]string{"main.c": "int a = __COUNTER__;\nint b = __COUNTER__;\nint c = __COUNTER__;\n"})
	if got := flatText(t, u.EnsureSegments()); got != "int a = 0 ; int b = 1 ; int c = 2 ;" {
		t.Errorf("got %q", got)
	}
	// The counter resets per unit.
	u2, _, _ := pp(t, map[string]string{"main.c": "int a = __COUNTER__;\n"})
	if got := flatText(t, u2.EnsureSegments()); got != "int a = 0 ;" {
		t.Errorf("second unit: %q", got)
	}
}

// collectDiags preprocesses expecting diagnostics.
func collectDiags(t *testing.T, files map[string]string) []Diagnostic {
	t.Helper()
	s := cond.NewSpace(cond.ModeBDD)
	p := New(Options{Space: s, FS: MapFS(files), IncludePaths: []string{"include"}})
	u, err := p.Preprocess("main.c")
	if err != nil {
		t.Fatalf("hard failure: %v", err)
	}
	return u.Diags
}

func hasError(diags []Diagnostic, substr string) bool {
	for _, d := range diags {
		if !d.Warning && strings.Contains(d.Msg, substr) {
			return true
		}
	}
	return false
}

func TestRobustnessDiagnostics(t *testing.T) {
	cases := []struct {
		name  string
		files map[string]string
		want  string
	}{
		{
			"missing include",
			map[string]string{"main.c": "#include \"nope.h\"\n"},
			"include not found",
		},
		{
			"unterminated #if",
			map[string]string{"main.c": "#ifdef A\nint x;\n"},
			"unterminated #if",
		},
		{
			"#endif without #if",
			map[string]string{"main.c": "#endif\n"},
			"#endif without #if",
		},
		{
			"#else without #if",
			map[string]string{"main.c": "#else\n"},
			"#else without #if",
		},
		{
			"#elif after #else",
			map[string]string{"main.c": "#ifdef A\n#else\n#elif defined(B)\n#endif\n"},
			"#elif after #else",
		},
		{
			"malformed #undef",
			map[string]string{"main.c": "#undef 42\n"},
			"malformed #undef",
		},
		{
			"unknown directive",
			map[string]string{"main.c": "#frobnicate\n"},
			"unknown directive",
		},
		{
			"bad conditional expression",
			map[string]string{"main.c": "#if +\nint x;\n#endif\n"},
			"bad conditional expression",
		},
		{
			"wrong macro arity",
			map[string]string{"main.c": "#define F(a, b) a\nint x = F(1);\n"},
			"expects 2 arguments",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			diags := collectDiags(t, c.files)
			if !hasError(diags, c.want) {
				t.Errorf("want %q in %v", c.want, diags)
			}
		})
	}
}

func TestIncludeDepthLimit(t *testing.T) {
	s := cond.NewSpace(cond.ModeBDD)
	p := New(Options{
		Space:           s,
		FS:              MapFS(map[string]string{"main.c": "#include \"main.c\"\n"}),
		MaxIncludeDepth: 8,
	})
	u, err := p.Preprocess("main.c")
	if err != nil {
		t.Fatal(err)
	}
	if !hasError(u.Diags, "include depth limit") {
		t.Errorf("diags: %v", u.Diags)
	}
}

func TestEmptyMacroBody(t *testing.T) {
	u, _, _ := pp(t, map[string]string{"main.c": "#define NOTHING\nint NOTHING x NOTHING;\n"})
	if got := flatText(t, u.EnsureSegments()); got != "int x ;" {
		t.Errorf("got %q", got)
	}
}

func TestMacroDefinedAsItselfInConditional(t *testing.T) {
	// #if with a self-referential macro must terminate and treat the
	// residual name as a free atom.
	u, s, _ := pp(t, map[string]string{"main.c": "#define LOOP LOOP\n#if LOOP\nint x;\n#endif\n"})
	on := map[string]bool{"LOOP": true}
	if got := textOf(s, u.EnsureSegments(), on); got != "int x ;" {
		t.Errorf("on: %q", got)
	}
}

func TestConditionalWithMissingBranchesOnly(t *testing.T) {
	// All branches infeasible: the conditional vanishes entirely.
	u, s, _ := pp(t, map[string]string{"main.c": `
#ifdef A
#ifndef A
int impossible1;
#else
#endif
#endif
int live;
`})
	for _, assign := range []map[string]bool{nil, {"(defined A)": true}} {
		if got := textOf(s, u.EnsureSegments(), assign); got != "int live ;" {
			t.Errorf("%v: %q", assign, got)
		}
	}
}

func TestDeeplyNestedParensInMacroArgs(t *testing.T) {
	u, _, _ := pp(t, map[string]string{"main.c": "#define ID(x) x\nint v = ID(((((1 + (2))))));\n"})
	if got := flatText(t, u.EnsureSegments()); got != "int v = ( ( ( ( 1 + ( 2 ) ) ) ) ) ;" {
		t.Errorf("got %q", got)
	}
}

func TestGuardedHeaderChainDeep(t *testing.T) {
	files := map[string]string{"main.c": "#include \"h0.h\"\nint v = D0 + D9;\n"}
	for i := 0; i < 10; i++ {
		var b strings.Builder
		guard := strings.ToUpper("h" + string(rune('0'+i)) + "_H")
		b.WriteString("#ifndef " + guard + "\n#define " + guard + "\n")
		if i < 9 {
			b.WriteString("#include \"h" + string(rune('1'+i)) + ".h\"\n")
		}
		b.WriteString("#define D" + string(rune('0'+i)) + " " + string(rune('0'+i)) + "\n#endif\n")
		files["h"+string(rune('0'+i))+".h"] = b.String()
	}
	u, _, _ := pp(t, files)
	if got := flatText(t, u.EnsureSegments()); got != "int v = 0 + 9 ;" {
		t.Errorf("got %q", got)
	}
	if u.Stats.Includes != 10 {
		t.Errorf("includes = %d, want 10", u.Stats.Includes)
	}
}

func TestBenignRedefinitionNotCounted(t *testing.T) {
	u, _, _ := pp(t, map[string]string{"main.c": "#define N 1\n#define N 1\n#define N 2\nint x = N;\n"})
	// Only the 1 -> 2 change is a real redefinition.
	if u.Stats.Redefinitions != 1 {
		t.Errorf("Redefinitions = %d, want 1", u.Stats.Redefinitions)
	}
	if got := flatText(t, u.EnsureSegments()); got != "int x = 2 ;" {
		t.Errorf("got %q", got)
	}
}

func TestUndefOfBuiltinAndRedefine(t *testing.T) {
	u, _, _ := pp(t, map[string]string{"main.c": "#undef __GNUC__\n#define __GNUC__ 9\nint v = __GNUC__;\n"})
	if got := flatText(t, u.EnsureSegments()); got != "int v = 9 ;" {
		t.Errorf("got %q", got)
	}
}

func TestStringizeVariadic(t *testing.T) {
	u, _, _ := pp(t, map[string]string{"main.c": "#define TRACE(...) log(#__VA_ARGS__)\nTRACE(a, b + 1);\n"})
	if got := flatText(t, u.EnsureSegments()); got != `log ( "a, b + 1" ) ;` {
		t.Errorf("got %q", got)
	}
}

func TestPasteWithEmptyArg(t *testing.T) {
	u, _, _ := pp(t, map[string]string{"main.c": "#define GLUE(a, b) a##b\nint GLUE(x, ) = 1;\nint GLUE(, y) = 2;\n"})
	if got := flatText(t, u.EnsureSegments()); got != "int x = 1 ; int y = 2 ;" {
		t.Errorf("got %q", got)
	}
}

func TestForestHelpers(t *testing.T) {
	u, s, _ := pp(t, map[string]string{"main.c": `
int a;
#ifdef X
int b;
#ifdef Y
int c;
#endif
#endif
`})
	if got := CountTokens(u.EnsureSegments()); got != 9 {
		t.Errorf("CountTokens = %d, want 9", got)
	}
	if got := MaxDepth(u.EnsureSegments()); got != 2 {
		t.Errorf("MaxDepth = %d, want 2", got)
	}
	text := FlattenText(s, u.EnsureSegments())
	for _, want := range []string{"int a ;", "#if", "#endif"} {
		if !strings.Contains(text, want) {
			t.Errorf("FlattenText missing %q:\n%s", want, text)
		}
	}
}
