package lexer

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/token"
)

// texts extracts the non-newline, non-EOF token texts.
func texts(toks []token.Token) []string {
	var out []string
	for _, t := range toks {
		if t.Kind == token.Newline || t.Kind == token.EOF {
			continue
		}
		out = append(out, t.Text)
	}
	return out
}

func lexOK(t *testing.T, src string) []token.Token {
	t.Helper()
	toks, err := Lex("test.c", []byte(src))
	if err != nil {
		t.Fatalf("Lex(%q): %v", src, err)
	}
	return toks
}

func TestEmpty(t *testing.T) {
	toks := lexOK(t, "")
	if len(toks) != 1 || toks[0].Kind != token.EOF {
		t.Fatalf("empty input: %v", toks)
	}
}

func TestIdentifiersAndKeywordsLexAlike(t *testing.T) {
	toks := lexOK(t, "if else foo _bar x123 __STDC__")
	want := []string{"if", "else", "foo", "_bar", "x123", "__STDC__"}
	got := texts(toks)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("got %v, want %v", got, want)
	}
	for _, tok := range toks[:len(toks)-1] {
		if tok.Kind != token.Identifier {
			t.Errorf("%s lexed as %s, want Identifier", tok.Text, tok.Kind)
		}
	}
}

func TestNumbers(t *testing.T) {
	cases := []string{"0", "42", "0x1F", "017", "1u", "1UL", "3.14", ".5", "1e10", "1e+10", "1E-3", "0x1p4", "1.5f"}
	for _, c := range cases {
		toks := lexOK(t, c)
		if len(toks) != 2 || toks[0].Kind != token.Number || toks[0].Text != c {
			t.Errorf("%q lexed as %v", c, toks[:len(toks)-1])
		}
	}
}

func TestStringsAndChars(t *testing.T) {
	cases := []struct {
		src  string
		kind token.Kind
	}{
		{`"hello"`, token.String},
		{`"a\"b"`, token.String},
		{`""`, token.String},
		{`L"wide"`, token.String},
		{`'a'`, token.Char},
		{`'\n'`, token.Char},
		{`'\''`, token.Char},
		{`L'w'`, token.Char},
	}
	for _, c := range cases {
		toks := lexOK(t, c.src)
		if len(toks) != 2 || toks[0].Kind != c.kind || toks[0].Text != c.src {
			t.Errorf("%q lexed as %v (kind %s)", c.src, toks[0].Text, toks[0].Kind)
		}
	}
}

func TestUnterminatedString(t *testing.T) {
	if _, err := Lex("t.c", []byte("\"abc\n")); err == nil {
		t.Error("unterminated string not reported")
	}
	if _, err := Lex("t.c", []byte("/* never closed")); err == nil {
		t.Error("unterminated comment not reported")
	}
}

func TestPunctuatorsLongestMatch(t *testing.T) {
	cases := []struct {
		src  string
		want []string
	}{
		{"a+++b", []string{"a", "++", "+", "b"}},
		{"a->b", []string{"a", "->", "b"}},
		{"x<<=2", []string{"x", "<<=", "2"}},
		{"x>>=2", []string{"x", ">>=", "2"}},
		{"a...b", []string{"a", "...", "b"}},
		{"a##b", []string{"a", "##", "b"}},
		{"#define", []string{"#", "define"}},
		{"a&&b||c", []string{"a", "&&", "b", "||", "c"}},
		{"a==b!=c", []string{"a", "==", "b", "!=", "c"}},
		{"f(x,y)", []string{"f", "(", "x", ",", "y", ")"}},
		{"s.m", []string{"s", ".", "m"}},
	}
	for _, c := range cases {
		got := texts(lexOK(t, c.src))
		if strings.Join(got, "|") != strings.Join(c.want, "|") {
			t.Errorf("%q: got %v, want %v", c.src, got, c.want)
		}
	}
}

func TestComments(t *testing.T) {
	lx := New("t.c", []byte("a /* x */ b // y\nc"))
	toks, err := lx.Tokens()
	if err != nil {
		t.Fatal(err)
	}
	got := texts(toks)
	if strings.Join(got, " ") != "a b c" {
		t.Fatalf("got %v", got)
	}
	if lx.Comments != 2 {
		t.Errorf("Comments = %d, want 2", lx.Comments)
	}
	// The token after a comment must carry HasSpace for stringification.
	if !toks[1].HasSpace {
		t.Error("token after comment lacks HasSpace")
	}
}

// TestCommentHeavyCapacity: the token slice of a file that is mostly
// comment does not keep the capacity presized for dense code.
func TestCommentHeavyCapacity(t *testing.T) {
	toks := lexOK(t, "/* "+strings.Repeat("license text ", 100)+"*/\nint x;\n")
	if len(toks) != 6 || cap(toks) > 2*len(toks) {
		t.Fatalf("len %d cap %d", len(toks), cap(toks))
	}
}

func TestMultilineComment(t *testing.T) {
	toks := lexOK(t, "a /* one\ntwo\nthree */ b")
	got := texts(toks)
	if strings.Join(got, " ") != "a b" {
		t.Fatalf("got %v", got)
	}
	// Line counting continues across the comment.
	last := toks[1]
	if last.Line != 3 {
		t.Errorf("b at line %d, want 3", last.Line)
	}
}

func TestLineSplicing(t *testing.T) {
	lx := New("t.c", []byte("#define FOO \\\n 42\nbar"))
	toks, err := lx.Tokens()
	if err != nil {
		t.Fatal(err)
	}
	got := texts(toks)
	want := "# define FOO 42 bar"
	if strings.Join(got, " ") != want {
		t.Fatalf("got %v, want %s", got, want)
	}
	if lx.Splices != 1 {
		t.Errorf("Splices = %d, want 1", lx.Splices)
	}
	// No Newline token between FOO and 42: the continuation joined them.
	sawNewlineBefore42 := false
	for i, tok := range toks {
		if tok.Text == "42" {
			for _, before := range toks[:i] {
				if before.Kind == token.Newline {
					sawNewlineBefore42 = true
				}
			}
		}
	}
	if sawNewlineBefore42 {
		t.Error("newline token leaked through a line continuation")
	}
}

func TestSplicedIdentifier(t *testing.T) {
	// A backslash-newline can split an identifier; splicing must rejoin it.
	toks := lexOK(t, "foo\\\nbar")
	got := texts(toks)
	if len(got) != 1 || got[0] != "foobar" {
		t.Fatalf("got %v, want [foobar]", got)
	}
}

func TestNewlines(t *testing.T) {
	toks := lexOK(t, "a\nb\r\nc")
	var kinds []token.Kind
	for _, tok := range toks {
		kinds = append(kinds, tok.Kind)
	}
	want := []token.Kind{token.Identifier, token.Newline, token.Identifier, token.Newline, token.Identifier, token.EOF}
	if len(kinds) != len(want) {
		t.Fatalf("got %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("token %d: got %s, want %s", i, kinds[i], want[i])
		}
	}
}

func TestPositions(t *testing.T) {
	toks := lexOK(t, "ab cd\n  ef")
	checks := []struct {
		text      string
		line, col int
	}{
		{"ab", 1, 1}, {"cd", 1, 4}, {"ef", 2, 3},
	}
	i := 0
	for _, tok := range toks {
		if tok.Kind != token.Identifier {
			continue
		}
		c := checks[i]
		if tok.Text != c.text || tok.Line != c.line || tok.Col != c.col {
			t.Errorf("token %d: got %s at %d:%d, want %s at %d:%d",
				i, tok.Text, tok.Line, tok.Col, c.text, c.line, c.col)
		}
		i++
	}
}

func TestHasSpace(t *testing.T) {
	toks := lexOK(t, "a b\tc(d")
	wantSpace := map[string]bool{"a": false, "b": true, "c": true, "(": false, "d": false}
	for _, tok := range toks {
		if tok.Kind == token.EOF || tok.Kind == token.Newline {
			continue
		}
		if want, ok := wantSpace[tok.Text]; ok && tok.HasSpace != want {
			t.Errorf("%s: HasSpace = %v, want %v", tok.Text, tok.HasSpace, want)
		}
	}
}

func TestHashAndPaste(t *testing.T) {
	got := texts(lexOK(t, "#x ## y # z"))
	want := []string{"#", "x", "##", "y", "#", "z"}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestRealisticSnippet(t *testing.T) {
	src := `
#include "major.h"

#define MOUSEDEV_MIX 31

static int mousedev_open(struct inode *inode, struct file *file)
{
	int i;
#ifdef CONFIG_INPUT_MOUSEDEV_PSAUX
	if (imajor(inode) == MISC_MAJOR)
		i = MOUSEDEV_MIX;
	else
#endif
	i = iminor(inode) - 32;
	return 0;
}
`
	toks := lexOK(t, src)
	var idents, puncts, numbers int
	for _, tok := range toks {
		switch tok.Kind {
		case token.Identifier:
			idents++
		case token.Punct:
			puncts++
		case token.Number:
			numbers++
		}
	}
	if idents < 25 || puncts < 20 || numbers != 3 {
		t.Errorf("unexpected census: idents=%d puncts=%d numbers=%d", idents, puncts, numbers)
	}
	// It must round-trip the directive structure: count '#' at line starts.
	hashes := 0
	atLineStart := true
	for _, tok := range toks {
		if tok.Kind == token.Newline {
			atLineStart = true
			continue
		}
		if atLineStart && tok.Is("#") {
			hashes++
		}
		atLineStart = false
	}
	if hashes != 4 {
		t.Errorf("directive hashes = %d, want 4", hashes)
	}
}

func TestStripEOF(t *testing.T) {
	toks := lexOK(t, "a")
	stripped := StripEOF(toks)
	if len(stripped) != 1 || stripped[0].Text != "a" {
		t.Fatalf("StripEOF: %v", stripped)
	}
	if got := StripEOF(stripped); len(got) != 1 {
		t.Fatal("StripEOF on already-stripped slice changed it")
	}
}

// TestStrayByteText: a byte no token starts with lexes alone as Other, its
// text that byte — not the UTF-8 encoding of the byte read as a rune.
func TestStrayByteText(t *testing.T) {
	toks := lexOK(t, "int y = 2 \xb5 3; caf\xc3\xa9 @")
	var others []string
	for _, tok := range toks {
		if tok.Kind == token.Other {
			others = append(others, tok.Text)
		}
	}
	if want := []string{"\xb5", "\xc3", "\xa9", "@"}; strings.Join(others, "|") != strings.Join(want, "|") {
		t.Fatalf("Other texts %q, want %q", others, want)
	}
}

func TestDollarIdentifier(t *testing.T) {
	got := texts(lexOK(t, "a$b"))
	if len(got) != 1 || got[0] != "a$b" {
		t.Fatalf("got %v", got)
	}
}

func BenchmarkLexKernelStyleFile(b *testing.B) {
	var sb strings.Builder
	for i := 0; i < 500; i++ {
		sb.WriteString("#ifdef CONFIG_FEATURE\nstatic int fn(struct s *p) { return p->x + 42; }\n#endif\n")
	}
	src := []byte(sb.String())
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Lex("bench.c", src); err != nil {
			b.Fatal(err)
		}
	}
}

// TestLexerNeverPanics throws random byte soup at the lexer: it must either
// tokenize or return an error, never crash, and must always terminate.
func TestLexerNeverPanics(t *testing.T) {
	r := rand.New(rand.NewSource(2026))
	alphabet := []byte("abz_09+-*/%<>=!&|^~?:;,.#()[]{}'\"\\ \t\n\r$@`")
	for trial := 0; trial < 500; trial++ {
		n := r.Intn(200)
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = alphabet[r.Intn(len(alphabet))]
		}
		toks, err := Lex("fuzz.c", buf)
		if err != nil {
			continue // lexical errors are fine
		}
		if len(toks) == 0 || toks[len(toks)-1].Kind != token.EOF {
			t.Fatalf("trial %d: missing EOF terminator", trial)
		}
		// Tokens must cover only sane kinds and non-empty text (except
		// EOF/Newline).
		for _, tk := range toks[:len(toks)-1] {
			if tk.Kind != token.Newline && tk.Text == "" {
				t.Fatalf("trial %d: empty token text (kind %s)", trial, tk.Kind)
			}
		}
	}
}

// TestLexerPositionsMonotonic: token positions never go backwards.
func TestLexerPositionsMonotonic(t *testing.T) {
	src := "int a;\nlong b = 2; /* c */\nchar d;\n#define X 1\n"
	toks := lexOKHelper(t, src)
	prevLine, prevCol := 0, 0
	for _, tk := range toks {
		if tk.Kind == token.EOF {
			continue
		}
		if tk.Line < prevLine || (tk.Line == prevLine && tk.Col < prevCol) {
			t.Fatalf("position went backwards at %s", tk)
		}
		prevLine, prevCol = tk.Line, tk.Col
	}
}

func lexOKHelper(t *testing.T, src string) []token.Token {
	t.Helper()
	toks, err := Lex("t.c", []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	return toks
}

func TestDotDisambiguation(t *testing.T) {
	cases := []struct {
		src  string
		want []string
	}{
		{".5", []string{".5"}},
		{"a.b", []string{"a", ".", "b"}},
		{"s..5", []string{"s", ".", ".5"}},
		{"...x", []string{"...", "x"}},
	}
	for _, c := range cases {
		got := texts(lexOK(t, c.src))
		if strings.Join(got, "|") != strings.Join(c.want, "|") {
			t.Errorf("%q: got %v, want %v", c.src, got, c.want)
		}
	}
}

func TestDigraphs(t *testing.T) {
	cases := []struct {
		src  string
		want []string
	}{
		{"<% %>", []string{"{", "}"}},
		{"a<:0:>", []string{"a", "[", "0", "]"}},
		{"%:define", []string{"#", "define"}},
		{"a%:%:b", []string{"a", "##", "b"}},
		// Non-digraph neighbors must not be eaten: a % b, x < y.
		{"a % b", []string{"a", "%", "b"}},
		{"x < y", []string{"x", "<", "y"}},
		{"m %= 2", []string{"m", "%=", "2"}},
	}
	for _, c := range cases {
		got := texts(lexOK(t, c.src))
		if strings.Join(got, "|") != strings.Join(c.want, "|") {
			t.Errorf("%q: got %v, want %v", c.src, got, c.want)
		}
	}
}
