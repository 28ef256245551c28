package cgrammar

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/lalr"
	"repro/internal/lexer"
	"repro/internal/token"
)

func TestGrammarBuilds(t *testing.T) {
	c, err := Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	st := c.Table.Stats()
	if st.States < 200 {
		t.Errorf("suspiciously few states: %d", st.States)
	}
	if st.Productions < 150 {
		t.Errorf("suspiciously few productions: %d", st.Productions)
	}
	t.Logf("C grammar: %d states, %d productions, %d terminals, %d conflicts",
		st.States, st.Productions, st.Terminals, st.Conflicts)
}

func TestExpectedConflictsOnly(t *testing.T) {
	c := MustLoad()
	// The dangling else is the only conflict every C grammar carries; the
	// label-vs-expression IDENTIFIER ':' decision also resolves by shift.
	// Anything else indicates a grammar bug.
	for _, conflict := range c.Table.Conflicts {
		name := c.Grammar.Name(conflict.Terminal)
		switch name {
		case "else", ":":
			if conflict.Chosen.Kind != lalr.ActionShift {
				t.Errorf("conflict on %q resolved to %v, want shift", name, conflict.Chosen)
			}
		default:
			t.Errorf("unexpected %s conflict on %q in state %d",
				conflict.Kind, name, conflict.State)
		}
	}
}

// classify lexes a C snippet and maps tokens to terminal symbols, treating
// the names in typedefs as TYPEDEFNAME (a stand-in for the context plugin).
func classify(t *testing.T, c *C, src string, typedefs map[string]bool) []lalr.Symbol {
	t.Helper()
	toks, err := lexer.Lex("test.c", []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	var syms []lalr.Symbol
	toks = lexer.StripEOF(toks)
	for i := range toks {
		tk := &toks[i]
		if tk.Kind == token.Newline {
			continue
		}
		s := c.Classify(tk)
		if s == c.Identifier && typedefs[tk.Text] {
			s = c.TypedefName
		}
		syms = append(syms, s)
	}
	return syms
}

func mustParse(t *testing.T, src string, typedefs map[string]bool) {
	t.Helper()
	c := MustLoad()
	syms := classify(t, c, src, typedefs)
	if err := c.Table.ParseSymbols(syms, nil); err != nil {
		t.Errorf("parse %q: %v", src, err)
	}
}

func mustFail(t *testing.T, src string, typedefs map[string]bool) {
	t.Helper()
	c := MustLoad()
	syms := classify(t, c, src, typedefs)
	if err := c.Table.ParseSymbols(syms, nil); err == nil {
		t.Errorf("parse %q: expected failure", src)
	}
}

func TestParseDeclarations(t *testing.T) {
	cases := []string{
		"int x;",
		"int x, y, z;",
		"int x = 1;",
		"static const unsigned long mask = 0xff;",
		"char *s = \"hello\" \"world\";",
		"int a[10];",
		"int a[] ;",
		"int *p, **pp, a[3][4];",
		"int (*fp)(int, char *);",
		"int f(void);",
		"int f();",
		"int f(int a, int b);",
		"int f(int, char **);",
		"int f(int a, ...);",
		"struct point { int x; int y; };",
		"struct point p;",
		"struct { int anon; } s;",
		"union u { int i; float f; };",
		"enum color { RED, GREEN = 3, BLUE };",
		"enum color { RED, GREEN, };",
		"enum color c;",
		"typedef unsigned long size_t;",
		"struct list { struct list *next; int data : 4; unsigned : 2; };",
		"extern int errno;",
		"volatile int *const vp;",
	}
	for _, src := range cases {
		mustParse(t, src, nil)
	}
}

func TestParseWithTypedefNames(t *testing.T) {
	tds := map[string]bool{"size_t": true, "u32": true}
	cases := []string{
		"size_t n;",
		"size_t f(size_t n);",
		"int f(size_t);",
		"u32 v = (u32)x;",
		"size_t s = sizeof(size_t);",
		"size_t s = sizeof(u32 *);",
	}
	for _, src := range cases {
		mustParse(t, src, tds)
	}
}

func TestParseStatements(t *testing.T) {
	cases := []string{
		"int f(void) { return 0; }",
		"int f(void) { int x = 1; x += 2; return x; }",
		"void f(void) { if (a) b(); }",
		"void f(void) { if (a) b(); else c(); }",
		"void f(void) { if (a) if (b) c(); else d(); }",
		"void f(void) { while (n--) total += n; }",
		"void f(void) { do { x++; } while (x < 10); }",
		"void f(void) { for (i = 0; i < n; i++) sum += a[i]; }",
		"void f(void) { for (;;) break; }",
		"void f(void) { for (int i = 0; i < n; i++) sum += i; }",
		"void f(void) { switch (x) { case 1: a(); break; default: b(); } }",
		"void f(void) { goto out; out: return; }",
		"void f(void) { l1: l2: x = 1; }",
		"void f(void) { ; }",
		"void f(void) { { int nested; } }",
		"void f(void) { int a; g(); int b; }", // C99 mixed decls
	}
	for _, src := range cases {
		mustParse(t, src, nil)
	}
}

func TestParseExpressions(t *testing.T) {
	cases := []string{
		"int v = a + b * c - d / e % f;",
		"int v = a << 2 | b >> 3 & c ^ d;",
		"int v = a && b || !c;",
		"int v = a < b ? c : d;",
		"int v = a == b != c;",
		"int v = -a + +b - ~c;",
		"int v = *p + &x;",
		"int v = a.b.c + p->q->r;",
		"int v = arr[i][j];",
		"int v = f(a, b)(c);",
		"int v = (a, b, c);",
		"int v = sizeof x + sizeof(int);",
		"int v = sizeof(struct point);",
		"char c = 'x';",
		"int v = x++ + ++y;",
		"int v = a = b = c;",
		"void f(void) { x *= 2; y <<= 1; z |= m; }",
		"int v = (int)(long)p;",
		"int v = ((int(*)(void))p)();",
	}
	for _, src := range cases {
		mustParse(t, src, nil)
	}
}

func TestParseGnuExtensions(t *testing.T) {
	cases := []string{
		"static inline int f(void) { return 0; }",
		"__inline__ int g(void) { return 1; }",
		"int x __attribute__((aligned(4)));",
		"int y __attribute__((unused)) = 2;",
		"__attribute__((const)) int h(void);",
		"typeof(x) y;",
		"typeof(int *) p;",
		"void f(void) { asm(\"nop\"); }",
		"void f(void) { asm volatile(\"mfence\" : : ); }",
		"void f(void) { __asm__(\"mov %0, %1\" : \"=r\"(out) : \"r\"(in)); }",
		"__extension__ typedef unsigned long long u64;",
		"__extension__ int f(void) { return 0; }",
		"void f(void) { __extension__ long long v; }",
		"struct s { __extension__ long long wide; };",
		"int v = __extension__ (long)1;",
		"static __const int c = 1; __volatile__ __signed__ char f;",
	}
	for _, src := range cases {
		mustParse(t, src, nil)
	}
}

// TestParseC11Keywords: the C99/C11 keywords the grammar has rules for
// parse as specifiers, not as declared names.
func TestParseC11Keywords(t *testing.T) {
	mustParse(t, "_Bool b; _Noreturn void f(void); _Thread_local int t;", nil)
	mustParse(t, "static _Thread_local _Bool flag; _Noreturn static inline void die(int code) { for (;;) ; }", nil)
}

func TestParseMousedevExample(t *testing.T) {
	// The paper's Figure 1 code, in a single configuration.
	src := `
static int mousedev_open(struct inode *inode, struct file *file)
{
	int i;
	if (imajor(inode) == 10)
		i = 31;
	else
		i = iminor(inode) - 32;
	return 0;
}
`
	mustParse(t, src, nil)
}

func TestParseArrayInitializer(t *testing.T) {
	// The paper's Figure 6 construct, one configuration.
	src := `
static int (*check_part[])(struct parsed_partitions *) = {
	adfspart_check_ICS,
	adfspart_check_POWERTEC,
	adfspart_check_EESOX,
	((void *)0)
};
`
	mustParse(t, src, nil)
}

func TestRejectsInvalid(t *testing.T) {
	cases := []string{
		"int ;x",
		"int x = ;",
		"void f( { }",
		"struct { int x; ;",
		"return 0;", // statement at top level
		"int x x;",
		"if (a) b();", // statement at top level
		"int @;",      // stray tokens
		"int #;",
		"int \\;",
	}
	for _, src := range cases {
		mustFail(t, src, nil)
	}
}

func TestCompleteAnnotations(t *testing.T) {
	c := MustLoad()
	for _, name := range []string{"Declaration", "Statement", "Initializer", "ParameterDeclaration", "StructDeclaration"} {
		s, ok := c.Grammar.Lookup(name)
		if !ok || !c.IsComplete(s) {
			t.Errorf("%s should be a complete syntactic unit", name)
		}
	}
	for _, name := range []string{"Pointer", "DirectDeclarator", "UnaryOperator"} {
		s, ok := c.Grammar.Lookup(name)
		if ok && c.IsComplete(s) {
			t.Errorf("%s should not be complete", name)
		}
	}
}

func TestClassify(t *testing.T) {
	c := MustLoad()
	cases := []struct {
		tok  token.Token
		want string
	}{
		{token.Token{Kind: token.Identifier, Text: "foo"}, "IDENTIFIER"},
		{token.Token{Kind: token.Identifier, Text: "while"}, "while"},
		{token.Token{Kind: token.Identifier, Text: "__inline__"}, "inline"},
		{token.Token{Kind: token.Identifier, Text: "_Bool"}, "_Bool"},
		{token.Token{Kind: token.Identifier, Text: "__extension__"}, "__extension__"},
		{token.Token{Kind: token.Number, Text: "42"}, "CONSTANT"},
		{token.Token{Kind: token.Char, Text: "'a'"}, "CONSTANT"},
		{token.Token{Kind: token.String, Text: `"s"`}, "STRING"},
		{token.Token{Kind: token.Punct, Text: "->"}, "->"},
		{token.Token{Kind: token.Other, Text: "@"}, "STRAY"},
		{token.Token{Kind: token.Other, Text: `\`}, "STRAY"},
		{token.Token{Kind: token.Punct, Text: "#"}, "STRAY"},
		{token.Token{Kind: token.Punct, Text: "##"}, "STRAY"},
		{token.Token{Kind: token.EOF}, c.Grammar.Name(c.Grammar.EOF())},
	}
	for _, tc := range cases {
		if s := c.Classify(&tc.tok); c.Grammar.Name(s) != tc.want {
			t.Errorf("Classify(%v) = %s, want %s", tc.tok, c.Grammar.Name(s), tc.want)
		}
	}
}

func BenchmarkTableConstruction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := build(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestParseDesignatedInitializers(t *testing.T) {
	cases := []string{
		"struct point p = { .x = 1, .y = 2 };",
		"int a[4] = { [0] = 1, [3] = 9 };",
		"struct cfg c = { .limits = { [0] = 1, [1] = 2 }, .name = \"n\" };",
		"struct ops o = { .open = do_open, .close = 0, };",
		"int m[2][2] = { [0][1] = 5 };",
		"struct mix v = { 1, .tagged = 2, 3 };",
	}
	for _, src := range cases {
		mustParse(t, src, nil)
	}
}

// TestCTableSerializationRoundTrip round-trips the full C grammar's LALR
// tables through the lalr codec and checks the loaded tables parse
// identically — the Bison-like cached-tables path at real scale.
func TestCTableSerializationRoundTrip(t *testing.T) {
	c := MustLoad()
	var buf bytes.Buffer
	if err := c.Table.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	t.Logf("encoded C tables: %d KiB", buf.Len()/1024)
	loaded, err := lalr.ReadTable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumStates != c.Table.NumStates {
		t.Fatalf("states: %d vs %d", loaded.NumStates, c.Table.NumStates)
	}
	// Parse a snippet with both tables and compare reduction sequences.
	src := "static int f(int a) { return a * 2 + g(a); }"
	syms := classify(t, c, src, nil)
	runLabels := func(tbl *lalr.Table, input []lalr.Symbol) []string {
		var out []string
		if err := tbl.ParseSymbols(input, func(p *lalr.Production) {
			out = append(out, p.Label)
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := runLabels(c.Table, syms)
	// Remap symbols by name for the loaded grammar.
	var syms2 []lalr.Symbol
	for _, s := range syms {
		name := c.Grammar.Name(s)
		s2, ok := loaded.Grammar.Lookup(name)
		if !ok {
			t.Fatalf("symbol %q lost in round trip", name)
		}
		syms2 = append(syms2, s2)
	}
	got := runLabels(loaded, syms2)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("loaded C tables parse differently")
	}
}
