package lexer_test

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/corpus"
	"repro/internal/guard"
	"repro/internal/lexer"
	"repro/internal/token"
)

// lexRun is everything one lexer run produces.
type lexRun struct {
	toks              []token.Token
	err               string
	comments, splices int
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// budget returns a budget that lets limit tokens through, or nil for none.
func budget(limit int64) *guard.Budget {
	if limit <= 0 {
		return nil
	}
	return guard.New(context.Background(), guard.Limits{Tokens: limit})
}

func lexScan(src []byte, limit int64) lexRun {
	if limit > 0 {
		toks, err := lexer.LexBudget("f.c", src, budget(limit))
		return lexRun{toks: toks, err: errText(err)}
	}
	lx := lexer.New("f.c", src)
	toks, err := lx.Tokens()
	return lexRun{toks, errText(err), lx.Comments, lx.Splices}
}

func lexReference(src []byte, limit int64) lexRun {
	if limit > 0 {
		toks, err := refLexBudget("f.c", src, budget(limit))
		return lexRun{toks: toks, err: errText(err)}
	}
	lx := newRefLexer("f.c", src)
	toks, err := lx.Tokens()
	return lexRun{toks, errText(err), lx.Comments, lx.Splices}
}

// diffLex returns how the scan departs from the reference on src, lexed
// whole and truncated by a budget of limit tokens, or "" when they agree.
func diffLex(src []byte, limit int64) string {
	for _, lim := range []int64{0, limit} {
		got, want := lexScan(src, lim), lexReference(src, lim)
		if got.err != want.err {
			return fmt.Sprintf("limit %d: error %q, reference %q", lim, got.err, want.err)
		}
		if got.comments != want.comments || got.splices != want.splices {
			return fmt.Sprintf("limit %d: Comments/Splices %d/%d, reference %d/%d",
				lim, got.comments, got.splices, want.comments, want.splices)
		}
		for i := 0; i < max(len(got.toks), len(want.toks)); i++ {
			if i >= len(got.toks) || i >= len(want.toks) || got.toks[i] != want.toks[i] {
				return fmt.Sprintf("limit %d: token %d: %s, reference %s", lim, i, at(got.toks, i), at(want.toks, i))
			}
		}
	}
	return ""
}

func at(toks []token.Token, i int) string {
	if i >= len(toks) {
		return "<none>"
	}
	t := toks[i]
	return fmt.Sprintf("%s %q %s:%d:%d space=%v", t.Kind, t.Text, t.File, t.Line, t.Col, t.HasSpace)
}

// soup draws a random input from the bytes TestLexerNeverPanics uses plus
// L, e, p and non-ASCII bytes, with the multi-byte sequences whose handling
// spans bytes (splices, comment and literal openers, digraphs, exponents)
// mixed in often enough to meet each other.
func soup(r *rand.Rand) []byte {
	const alphabet = "abz_09+-*/%<>=!&|^~?:;,.#()[]{}'\"\\ \t\n\r$@`Lep"
	pieces := []string{"\\\n", "\\\r\n", "/*", "*/", "//", `L"`, "L'", "%:%:", "...", "<<=", "1e+", ".5"}
	buf := make([]byte, 0, 64)
	for n := r.Intn(48); len(buf) < n; {
		switch k := r.Intn(16); {
		case k < 2:
			buf = append(buf, pieces[r.Intn(len(pieces))]...)
		case k < 3:
			buf = append(buf, byte(0x80+r.Intn(0x80)))
		default:
			buf = append(buf, alphabet[r.Intn(len(alphabet))])
		}
	}
	return buf
}

// TestLexerMatchesReference: the index-based scan produces exactly what the
// character-at-a-time reference lexer produces — every token field, the
// error, the comment and splice counts, and a budget's truncated stream —
// on the generated corpus, the giant unit, and random byte soup.
func TestLexerMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	files := map[string]string{"giant.c": corpus.GiantUnit(1, 4000)}
	for seed := int64(1); seed <= 3; seed++ {
		for path, src := range corpus.Generate(corpus.Params{Seed: seed}).FS {
			files[fmt.Sprintf("seed%d/%s", seed, path)] = src
		}
	}
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		src := []byte(files[name])
		limit := 1 + r.Int63n(int64(len(src)/3+1))
		if d := diffLex(src, limit); d != "" {
			t.Fatalf("%s: %s", name, d)
		}
	}
	for i := 0; i < 100000; i++ {
		src := soup(r)
		if d := diffLex(src, 1+r.Int63n(int64(len(src)/2+1))); d != "" {
			t.Fatalf("soup %q: %s", src, d)
		}
	}
}

func FuzzLexer(f *testing.F) {
	for _, s := range []string{
		"", "int x = 1;\n", "#define F(a) a ## b \\\n + 1\n", "a \\\nb", "L\\\n\"x\"",
		"/* open", "\"abc\n", "'\\", "x\r\ny\rz", "%:%: <% %> <: :> ... <<= .5e+1",
		"int y = 2 \xb5 3;", "#error caf\xc3\xa9\n", "a/\\\r\n*c*\\\n/b",
	} {
		f.Add([]byte(s), uint16(3))
	}
	f.Fuzz(func(t *testing.T, src []byte, limit uint16) {
		if d := diffLex(src, int64(limit)); d != "" {
			t.Fatal(d)
		}
	})
}
