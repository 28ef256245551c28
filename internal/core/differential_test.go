package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/preprocessor"
)

// randomCProgram builds a random variability-rich but valid C program over
// nvars configuration variables. Its typedef items exercise the parser's
// symbol table under variability: a name that is a typedef in some
// configurations and an object in others, at file scope and in a block the
// configurations leave together.
func randomCProgram(r *rand.Rand, nvars int) string {
	var b strings.Builder
	v := func() string { return fmt.Sprintf("V%d", r.Intn(nvars)) }
	b.WriteString("#define TWICE(x) ((x) * 2)\n")
	fmt.Fprintf(&b, "#ifdef %s\n#define BASE 10\n#else\n#define BASE 20\n#endif\n", v())
	n := 4 + r.Intn(5)
	for i := 0; i < n; i++ {
		switch r.Intn(8) {
		case 0:
			fmt.Fprintf(&b, "#ifdef %s\nint d%d = %d;\n#endif\n", v(), i, r.Intn(50))
		case 1:
			fmt.Fprintf(&b, "#ifdef %s\nlong e%d = BASE;\n#else\nshort e%d = TWICE(%d);\n#endif\n", v(), i, i, r.Intn(9))
		case 2:
			fmt.Fprintf(&b, `int f%d(int k)
{
	int acc = k;
#ifdef %s
	if (acc > %d)
		acc = acc - 1;
	else
#endif
	acc = acc + BASE;
	return acc;
}
`, i, v(), r.Intn(20))
		case 3:
			fmt.Fprintf(&b, "static int t%d[] = {\n#ifdef %s\n%d,\n#endif\n#ifdef %s\n%d,\n#endif\n0 };\n",
				i, v(), r.Intn(9), v(), r.Intn(9))
		case 4:
			fmt.Fprintf(&b, "struct s%d {\nint base;\n#ifdef %s\nint opt;\n#endif\n};\n", i, v())
		case 5:
			fmt.Fprintf(&b, `#ifdef %s
typedef int u%d;
#else
int u%d;
#endif
int h%d(void)
{
	int z = %d;
	u%d * z;
	return z;
}
`, v(), i, i, i, r.Intn(9), i)
		case 6:
			fmt.Fprintf(&b, `int k%d(int a)
{
	int w = a;
	int z = a;
	{
#ifdef %s
		typedef int w;
#else
		int w = %d;
#endif
		w * z;
	}
	w * z;
	return z;
}
`, i, v(), r.Intn(9))
		default:
			fmt.Fprintf(&b, "int g%d = TWICE(BASE) + %d;\n", i, r.Intn(5))
		}
	}
	return b.String()
}

// normalizeTree canonicalizes projected trees for comparison: nested
// same-label lists flatten (projection of merged list spines produces
// nesting that single-configuration parses never build), and empty interior
// nodes drop.
func normalizeTree(n *ast.Node) *ast.Node {
	if n == nil {
		return nil
	}
	if n.Kind == ast.KindToken {
		return n
	}
	var kids []*ast.Node
	for _, c := range n.Children {
		nc := normalizeTree(c)
		if nc == nil {
			continue
		}
		if nc.Kind == ast.KindList && n.Kind == ast.KindList && nc.Label == n.Label {
			kids = append(kids, nc.Children...)
			continue
		}
		kids = append(kids, nc)
	}
	if len(kids) == 0 && n.Kind != ast.KindToken {
		return nil
	}
	return &ast.Node{Kind: n.Kind, Label: n.Label, Children: kids}
}

func renderStructure(n *ast.Node) string {
	var b strings.Builder
	var walk func(m *ast.Node)
	walk = func(m *ast.Node) {
		if m == nil {
			return
		}
		if m.Kind == ast.KindToken {
			fmt.Fprintf(&b, "%q ", m.Tok.Text)
			return
		}
		fmt.Fprintf(&b, "(%s ", m.Label)
		for _, c := range m.Children {
			walk(c)
		}
		b.WriteString(") ")
	}
	walk(n)
	return b.String()
}

// TestDifferentialASTvsSingleConfig is the end-to-end differential check:
// for random variability-rich programs, projecting the
// configuration-preserving AST under each configuration must yield the
// same tree (same productions over the same tokens) as running the whole
// single-configuration pipeline with that configuration's -D flags.
func TestDifferentialASTvsSingleConfig(t *testing.T) {
	const nvars = 3
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 25; trial++ {
		checkDifferential(t, fmt.Sprintf("trial %d", trial), randomCProgram(r, nvars), nvars)
	}
}

// TestDifferentialSharedSymbolTable pins the cases where one symbol table
// serves every subparser of a parse. In the first, the configurations leave
// a block at different places: under V0 the typedef's block closes and
// "T * y" is a multiplication in k, under !V0 it stays open and "T * y"
// declares y in h (the "int z" matters: the first token after "{" is
// classified before the scope opens). In the second, a file-scope name is a
// typedef under V0 and an object otherwise, and a function body uses it.
func TestDifferentialSharedSymbolTable(t *testing.T) {
	cases := []struct{ name, src string }{
		{"partial block exit", `void h(void) {
  typedef int T;
#ifdef V0
}
void k(void) {
#endif
  int z;
  T * y;
}
`},
		{"conditional file-scope typedef", `#ifdef V0
typedef int U;
#else
int U;
#endif
int f(void)
{
	int z = 1;
	U * z;
	return z;
}
`},
	}
	for _, c := range cases {
		checkDifferential(t, c.name, c.src, 1)
	}
}

// checkDifferential projects src's configuration-preserving parse under
// every assignment of V0..V(nvars-1) and compares each projection with the
// single-configuration parse of the same assignment.
func checkDifferential(t *testing.T, name, src string, nvars int) {
	t.Helper()
	files := preprocessor.MapFS{"main.c": src}

	preserving := New(Config{FS: files})
	res, err := preserving.ParseFile("main.c")
	if err != nil {
		t.Fatalf("%s: %v\n%s", name, err, src)
	}
	if res.AST == nil || len(res.Parse.Diags) > 0 {
		t.Fatalf("%s: preserving parse failed: %v\n%s", name, res.Parse.Diags, src)
	}

	for bits := 0; bits < 1<<nvars; bits++ {
		defines := map[string]string{}
		assign := map[string]bool{}
		for i := 0; i < nvars; i++ {
			if bits&(1<<i) != 0 {
				v := fmt.Sprintf("V%d", i)
				defines[v] = "1"
				assign["(defined "+v+")"] = true
			}
		}
		single := New(Config{FS: files, Defines: defines, SingleConfig: true})
		sres, err := single.ParseFile("main.c")
		if err != nil || sres.AST == nil {
			t.Fatalf("%s config %03b: single parse failed: %v\n%s", name, bits, err, src)
		}
		want := renderStructure(normalizeTree(sres.AST))
		got := renderStructure(normalizeTree(preserving.Project(res, assign)))
		if got != want {
			t.Fatalf("%s config %03b: trees differ\nprojected: %s\nsingle:    %s\nsource:\n%s",
				name, bits, got, want, src)
		}
	}
}
