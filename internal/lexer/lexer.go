// Package lexer converts C source text into tokens.
//
// The lexer is the first of SuperC's three steps (paper §2, Table 1 "Lexer"
// row). New runs translation phase 2 once: it deletes every backslash-newline
// (and backslash-CR-newline), keeping a sorted table of where each splice
// was so positions still name the physical line and column. The scan then
// indexes that spliced text directly: identifier, number, literal and stray
// byte texts are substrings of it, and a punctuator is the longest of the
// table's spellings (at most four bytes) the text starts with, its text the
// canonical spelling (a C95 digraph lexes to the punctuator it stands for). Layout — whitespace and comments — is
// stripped, recorded only as a HasSpace bit on the following token (enough
// for correct stringification and for diagnostics), and Newline tokens mark
// logical line ends so the preprocessor can recognize directive lines. All
// words lex as identifiers; keywords are reclassified at parse time because
// the preprocessor may define or expand macros named like keywords.
package lexer

import (
	"bytes"
	"fmt"
	"sort"
	"strings"

	"repro/internal/guard"
	"repro/internal/token"
)

// Error describes a lexical error with its position.
type Error struct {
	File string
	Line int
	Col  int
	Msg  string
}

func (e *Error) Error() string {
	return fmt.Sprintf("%s:%d:%d: %s", e.File, e.Line, e.Col, e.Msg)
}

// Lexer scans one file. Create with New, then call Tokens.
type Lexer struct {
	file string
	text string        // the source after splicing
	pos  int           // scan cursor into text
	toks []token.Token // tokens scanned so far

	// splices holds, ascending, the offset in text at which each deleted
	// backslash-newline stood. A splice restarts the physical line: it
	// counts toward a position at offset k only when it lies before k.
	splices []int

	// text[lineStart] begins physical line line (column 1), counting the
	// newlines the scan has passed and the first spliced splices.
	line, lineStart, spliced int

	// pending space flag for the next token
	hasSpace bool

	// budget, when set, bounds the number of tokens produced; nil in the
	// common path costs one pointer check per token.
	budget *guard.Budget

	// Stats
	Comments int // number of comments stripped
	Splices  int // number of line continuations spliced
}

// New returns a lexer over src, reporting positions against file.
func New(file string, src []byte) *Lexer {
	l := &Lexer{file: file, line: 1}
	l.text, l.splices = splice(src)
	return l
}

// splice deletes each backslash-newline and backslash-CR-newline from src,
// left to right in one pass, returning the spliced text and the offset in
// it of every deletion.
func splice(src []byte) (string, []int) {
	var b strings.Builder
	var offs []int
	from := 0 // src[from:] is not copied yet
	for i := 0; ; i++ {
		j := bytes.IndexByte(src[i:], '\\')
		if j < 0 {
			break
		}
		i += j
		var n int // bytes after the backslash that the splice deletes
		switch rest := src[i+1:]; {
		case bytes.HasPrefix(rest, []byte("\n")):
			n = 1
		case bytes.HasPrefix(rest, []byte("\r\n")):
			n = 2
		default:
			continue
		}
		if offs == nil {
			b.Grow(len(src))
		}
		b.Write(src[from:i])
		offs = append(offs, b.Len())
		i += n
		from = i + 1
	}
	if offs == nil {
		return string(src), nil
	}
	b.Write(src[from:])
	return b.String(), offs
}

// Lex tokenizes the entire source, returning the token slice terminated by
// an EOF token. Newline tokens mark logical line ends.
func Lex(file string, src []byte) ([]token.Token, error) {
	lx := New(file, src)
	return lx.Tokens()
}

// LexBudget is Lex under a resource budget: each produced token charges
// guard.AxisTokens, and a trip truncates the stream — the tokens lexed so
// far are returned terminated by EOF, with no error. Degradation, not
// failure: the caller inspects the budget for the diagnostic.
func LexBudget(file string, src []byte, b *guard.Budget) ([]token.Token, error) {
	lx := New(file, src)
	lx.budget = b
	return lx.Tokens()
}

// Tokens scans all remaining input.
func (l *Lexer) Tokens() ([]token.Token, error) {
	// Dense C runs about three source bytes a token (newlines included), so
	// half the text holds a dense file's tokens without a regrowth.
	l.toks = make([]token.Token, 0, len(l.text)/2+1)
	for {
		if !l.budget.Charge("lexer", guard.AxisTokens, 1) {
			l.emit(token.EOF, l.pos, "")
			break
		}
		if err := l.next(); err != nil {
			return l.toks, err
		}
		if l.toks[len(l.toks)-1].Kind == token.EOF {
			break
		}
	}
	l.Splices = sort.SearchInts(l.splices, l.pos) // the splices before pos
	if cap(l.toks) > 2*len(l.toks) {
		// A comment-heavy file (system headers run about eight bytes a
		// token) leaves most of that unused; a cached file's lines would
		// keep it alive.
		l.toks = append(make([]token.Token, 0, len(l.toks)), l.toks...)
	}
	return l.toks, nil
}

// newline records the newline at text offset at.
func (l *Lexer) newline(at int) {
	l.line++
	l.lineStart = at + 1
}

// lineCol returns the physical position of text offset k; k never
// decreases from one call to the next.
func (l *Lexer) lineCol(k int) (int, int) {
	for l.spliced < len(l.splices) && l.splices[l.spliced] < k {
		l.line++
		l.lineStart = max(l.lineStart, l.splices[l.spliced])
		l.spliced++
	}
	return l.line, k - l.lineStart + 1
}

// emit appends a token starting at text offset k, consuming the pending
// space flag.
func (l *Lexer) emit(kind token.Kind, k int, text string) {
	line, col := l.lineCol(k)
	l.toks = append(l.toks, token.Token{Kind: kind, Text: text, File: l.file, Line: line, Col: col, HasSpace: l.hasSpace})
	l.hasSpace = false
}

// errorAt makes an error at text offset k, with the scan having passed the
// splices before end.
func (l *Lexer) errorAt(k, end int, msg string) *Error {
	line, col := l.lineCol(k)
	l.Splices = sort.SearchInts(l.splices, end)
	return &Error{File: l.file, Line: line, Col: col, Msg: msg}
}

// next scans the next token.
func (l *Lexer) next() error {
	s := l.text
	for l.pos < len(s) {
		start := l.pos
		switch c := s[start]; c {
		case '\n', '\r':
			l.emit(token.Newline, start, "")
			l.pos++
			if c == '\r' && l.pos < len(s) && s[l.pos] == '\n' {
				l.pos++
			}
			if s[l.pos-1] == '\n' {
				l.newline(l.pos - 1)
			}
			return nil
		case ' ', '\t', '\v', '\f':
			l.pos++
			l.hasSpace = true
		case '/':
			switch {
			case strings.HasPrefix(s[start:], "//"):
				// Line comment: consume to (but not including) newline.
				end := strings.IndexAny(s[start:], "\n\r")
				if end < 0 {
					end = len(s) - start
				}
				l.pos = start + end
			case strings.HasPrefix(s[start:], "/*"):
				end := strings.Index(s[start+2:], "*/")
				if end < 0 {
					// The scan reads to the end, passing every splice.
					return l.errorAt(start+2, len(s)+1, "unterminated block comment")
				}
				l.pos = start + 2 + end + 2
				for i := start + 2; i < l.pos; i++ {
					if s[i] == '\n' {
						l.newline(i)
					}
				}
			default:
				l.punct(start)
				return nil
			}
			l.Comments++
			l.hasSpace = true
		default:
			return l.scanToken(start, c)
		}
	}
	l.emit(token.EOF, l.pos, "")
	return nil
}

func (l *Lexer) scanToken(start int, c byte) error {
	s := l.text
	switch {
	case isIdentStart(c):
		// Wide string/char prefix: L"..." or L'...'
		if c == 'L' && start+1 < len(s) && (s[start+1] == '"' || s[start+1] == '\'') {
			return l.scanQuoted(start, start+1)
		}
		end := start + 1
		for end < len(s) && isIdentCont(s[end]) {
			end++
		}
		l.pos = end
		l.emit(token.Identifier, start, s[start:end])
	case c >= '0' && c <= '9', c == '.' && start+1 < len(s) && s[start+1] >= '0' && s[start+1] <= '9':
		l.scanNumber(start)
	case c == '"' || c == '\'':
		return l.scanQuoted(start, start)
	default:
		l.punct(start)
	}
	return nil
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '$' // $ is a common extension
}

func isIdentCont(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}

// scanNumber scans a preprocessing number: a superset of C numeric literals
// (C standard 6.4.8): digits, identifier characters, '.', and exponent signs
// after e/E/p/P.
func (l *Lexer) scanNumber(start int) {
	s := l.text
	end := start
	for end < len(s) && (isIdentCont(s[end]) || s[end] == '.') {
		c := s[end]
		end++
		if (c == 'e' || c == 'E' || c == 'p' || c == 'P') && end < len(s) && (s[end] == '+' || s[end] == '-') {
			end++
		}
	}
	l.pos = end
	l.emit(token.Number, start, s[start:end])
}

// scanQuoted scans a string or character literal whose opening quote is at
// quote; start is where its text begins (before an L prefix). The token
// takes the quote's position.
func (l *Lexer) scanQuoted(start, quote int) error {
	s := l.text
	q := s[quote]
	i := quote + 1
	for {
		if i >= len(s) {
			return l.errorAt(quote, len(s)+1, fmt.Sprintf("unterminated %c literal", q))
		}
		c := s[i]
		i++
		if c == '\n' {
			return l.errorAt(quote, i, fmt.Sprintf("unterminated %c literal", q))
		}
		if c == '\\' {
			// Escaped character: consume it blindly.
			if i >= len(s) {
				return l.errorAt(quote, len(s)+1, "unterminated escape")
			}
			i++
			continue
		}
		if c == q {
			break
		}
	}
	kind := token.String
	if q == '\'' {
		kind = token.Char
	}
	l.pos = i
	l.emit(kind, quote, s[start:i])
	// An escaped newline is the only one a literal can hold.
	for j := quote + 1; j < i; j++ {
		if s[j] == '\n' {
			l.newline(j)
		}
	}
	return nil
}

// punct scans the longest punctuator at start, or a single stray byte as
// token.Other.
func (l *Lexer) punct(start int) {
	s := l.text[start:]
	for _, p := range punctByFirst[s[0]] {
		if strings.HasPrefix(s, p.spell) {
			l.pos = start + len(p.spell)
			l.emit(token.Punct, start, p.text)
			return
		}
	}
	l.pos = start + 1
	l.emit(token.Other, start, s[:1])
}

// punctuators, longest first within each starting byte, covering C89/C99,
// the preprocessor operators # and ##, and the C95 digraphs (which lex to
// their canonical spellings so the rest of the pipeline never sees them).
var punctuators = []string{
	"%:%:", // digraph ##
	"...", "<<=", ">>=",
	"<%", "%>", "<:", ":>", "%:", // digraphs { } [ ] #
	"->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
	"+=", "-=", "*=", "/=", "%=", "&=", "^=", "|=", "##",
	"[", "]", "(", ")", "{", "}", ".", "&", "*", "+", "-", "~", "!",
	"/", "%", "<", ">", "^", "|", "?", ":", ";", "=", ",", "#",
}

// digraphs maps the alternative spellings to their canonical punctuators.
var digraphs = map[string]string{
	"<%": "{", "%>": "}", "<:": "[", ":>": "]", "%:": "#", "%:%:": "##",
}

// punctByFirst holds the punctuators by first byte, longest first, each
// with the text it lexes to.
var punctByFirst = func() (t [256][]struct{ spell, text string }) {
	for _, p := range punctuators {
		text := p
		if canon, ok := digraphs[p]; ok {
			text = canon
		}
		t[p[0]] = append(t[p[0]], struct{ spell, text string }{p, text})
	}
	return t
}()

// StripEOF removes the trailing EOF token if present; convenient for
// splicing token slices.
func StripEOF(toks []token.Token) []token.Token {
	if n := len(toks); n > 0 && toks[n-1].Kind == token.EOF {
		return toks[:n-1]
	}
	return toks
}
