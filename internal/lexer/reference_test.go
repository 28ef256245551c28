package lexer_test

// This file keeps the character-at-a-time lexer that the index-based scan in
// lexer.go replaced, as the reference TestLexerMatchesReference and
// FuzzLexer compare it against. It is kept as it was, renamed so it can sit
// beside the package, with one fix: a stray byte's text is that byte
// (string([]byte{c})), not the UTF-8 encoding of the rune c.

import (
	"fmt"
	"strings"

	"repro/internal/guard"
	"repro/internal/token"
)

// refError describes a lexical error with its position.
type refError struct {
	File string
	Line int
	Col  int
	Msg  string
}

func (e *refError) Error() string {
	return fmt.Sprintf("%s:%d:%d: %s", e.File, e.Line, e.Col, e.Msg)
}

// refPunctuators, longest first within each starting byte, covering C89/C99,
// the preprocessor operators # and ##, and the C95 digraphs (which lex to
// their canonical spellings so the rest of the pipeline never sees them).
var refPunctuators = []string{
	"%:%:", // digraph ##
	"...", "<<=", ">>=",
	"<%", "%>", "<:", ":>", "%:", // digraphs { } [ ] #
	"->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
	"+=", "-=", "*=", "/=", "%=", "&=", "^=", "|=", "##",
	"[", "]", "(", ")", "{", "}", ".", "&", "*", "+", "-", "~", "!",
	"/", "%", "<", ">", "^", "|", "?", ":", ";", "=", ",", "#",
}

// refDigraphs maps the alternative spellings to their canonical punctuators.
var refDigraphs = map[string]string{
	"<%": "{", "%>": "}", "<:": "[", ":>": "]", "%:": "#", "%:%:": "##",
}

// refLexer scans one file. Create with newRefLexer, then call Tokens or Next.
type refLexer struct {
	file string
	src  []byte
	pos  int
	line int
	col  int

	// pending space flag for the next token
	hasSpace bool

	// budget, when set, bounds the number of tokens produced; nil in the
	// common path costs one pointer check per token.
	budget *guard.Budget

	// Stats
	Comments int // number of comments stripped
	Splices  int // number of line continuations spliced
}

// newRefLexer returns a lexer over src, reporting positions against file.
func newRefLexer(file string, src []byte) *refLexer {
	return &refLexer{file: file, src: src, line: 1, col: 1}
}

// refLex tokenizes the entire source, returning the token slice terminated by
// an EOF token. Newline tokens mark logical line ends.
func refLex(file string, src []byte) ([]token.Token, error) {
	lx := newRefLexer(file, src)
	return lx.Tokens()
}

// refLexBudget is refLex under a resource budget: each produced token charges
// guard.AxisTokens, and a trip truncates the stream — the tokens lexed so
// far are returned terminated by EOF, with no error. Degradation, not
// failure: the caller inspects the budget for the diagnostic.
func refLexBudget(file string, src []byte, b *guard.Budget) ([]token.Token, error) {
	lx := newRefLexer(file, src)
	lx.budget = b
	return lx.Tokens()
}

// Tokens scans all remaining input.
func (l *refLexer) Tokens() ([]token.Token, error) {
	var toks []token.Token
	for {
		if !l.budget.Charge("lexer", guard.AxisTokens, 1) {
			return append(toks, token.Token{Kind: token.EOF, File: l.file, Line: l.line, Col: l.col}), nil
		}
		t, err := l.Next()
		if err != nil {
			return toks, err
		}
		toks = append(toks, t)
		if t.Kind == token.EOF {
			return toks, nil
		}
	}
}

// peek returns the byte at offset d from the cursor after collapsing
// backslash-newline splices, and the number of raw bytes the splice-aware
// step consumed. It does not advance.
func (l *refLexer) peekByte() (byte, bool) {
	p := l.pos
	for {
		if p >= len(l.src) {
			return 0, false
		}
		if l.src[p] == '\\' && p+1 < len(l.src) && (l.src[p+1] == '\n' || (l.src[p+1] == '\r' && p+2 < len(l.src) && l.src[p+2] == '\n')) {
			if l.src[p+1] == '\r' {
				p += 3
			} else {
				p += 2
			}
			continue
		}
		return l.src[p], true
	}
}

// advance consumes one logical character, handling splices and position
// tracking, and returns it.
func (l *refLexer) advance() (byte, bool) {
	for {
		if l.pos >= len(l.src) {
			return 0, false
		}
		c := l.src[l.pos]
		if c == '\\' {
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\n' {
				l.pos += 2
				l.line++
				l.col = 1
				l.Splices++
				continue
			}
			if l.pos+2 < len(l.src) && l.src[l.pos+1] == '\r' && l.src[l.pos+2] == '\n' {
				l.pos += 3
				l.line++
				l.col = 1
				l.Splices++
				continue
			}
		}
		l.pos++
		if c == '\n' {
			l.line++
			l.col = 1
		} else {
			l.col++
		}
		return c, true
	}
}

// Next returns the next token.
func (l *refLexer) Next() (token.Token, error) {
	for {
		c, ok := l.peekByte()
		if !ok {
			return l.mk(token.EOF, ""), nil
		}
		switch {
		case c == '\n' || c == '\r':
			line, col := l.line, l.col
			l.advance()
			if c == '\r' {
				if c2, ok := l.peekByte(); ok && c2 == '\n' {
					l.advance()
				}
			}
			t := token.Token{Kind: token.Newline, File: l.file, Line: line, Col: col, HasSpace: l.hasSpace}
			l.hasSpace = false
			return t, nil
		case c == ' ' || c == '\t' || c == '\v' || c == '\f':
			l.advance()
			l.hasSpace = true
		case c == '/':
			// Possible comment.
			save := *l
			l.advance()
			c2, ok := l.peekByte()
			switch {
			case ok && c2 == '/':
				// Line comment: consume to (but not including) newline.
				for {
					c3, ok := l.peekByte()
					if !ok || c3 == '\n' || c3 == '\r' {
						break
					}
					l.advance()
				}
				l.Comments++
				l.hasSpace = true
			case ok && c2 == '*':
				l.advance()
				if err := l.skipBlockComment(); err != nil {
					return token.Token{}, err
				}
				l.Comments++
				l.hasSpace = true
			default:
				*l = save
				return l.punct()
			}
		default:
			return l.scanToken(c)
		}
	}
}

func (l *refLexer) skipBlockComment() error {
	startLine, startCol := l.line, l.col
	var prev byte
	for {
		c, ok := l.advance()
		if !ok {
			return &refError{File: l.file, Line: startLine, Col: startCol, Msg: "unterminated block comment"}
		}
		if prev == '*' && c == '/' {
			return nil
		}
		prev = c
	}
}

func (l *refLexer) mk(kind token.Kind, text string) token.Token {
	t := token.Token{
		Kind: kind, Text: text, File: l.file,
		Line: l.line, Col: l.col, HasSpace: l.hasSpace,
	}
	l.hasSpace = false
	return t
}

func (l *refLexer) scanToken(c byte) (token.Token, error) {
	switch {
	case isIdentStart(c):
		// Wide string/char prefix: L"..." or L'...'
		if c == 'L' {
			save := *l
			l.advance()
			if c2, ok := l.peekByte(); ok && (c2 == '"' || c2 == '\'') {
				return l.scanQuoted(c2, "L")
			}
			*l = save
		}
		return l.scanIdent()
	case c >= '0' && c <= '9':
		return l.scanNumber()
	case c == '.':
		// .digit starts a pp-number; otherwise punctuator.
		save := *l
		l.advance()
		if c2, ok := l.peekByte(); ok && c2 >= '0' && c2 <= '9' {
			*l = save
			return l.scanNumber()
		}
		*l = save
		return l.punct()
	case c == '"' || c == '\'':
		return l.scanQuoted(c, "")
	default:
		return l.punct()
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '$' // $ is a common extension
}

func isIdentCont(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}

func (l *refLexer) scanIdent() (token.Token, error) {
	line, col, space := l.line, l.col, l.hasSpace
	var b strings.Builder
	for {
		c, ok := l.peekByte()
		if !ok || !isIdentCont(c) {
			break
		}
		l.advance()
		b.WriteByte(c)
	}
	l.hasSpace = false
	return token.Token{Kind: token.Identifier, Text: b.String(), File: l.file, Line: line, Col: col, HasSpace: space}, nil
}

// scanNumber scans a preprocessing number: a superset of C numeric literals
// (C standard 6.4.8): digits, identifier characters, '.', and exponent signs
// after e/E/p/P.
func (l *refLexer) scanNumber() (token.Token, error) {
	line, col, space := l.line, l.col, l.hasSpace
	var b strings.Builder
	for {
		c, ok := l.peekByte()
		if !ok {
			break
		}
		if isIdentCont(c) || c == '.' {
			l.advance()
			b.WriteByte(c)
			if c == 'e' || c == 'E' || c == 'p' || c == 'P' {
				if c2, ok := l.peekByte(); ok && (c2 == '+' || c2 == '-') {
					l.advance()
					b.WriteByte(c2)
				}
			}
			continue
		}
		break
	}
	l.hasSpace = false
	return token.Token{Kind: token.Number, Text: b.String(), File: l.file, Line: line, Col: col, HasSpace: space}, nil
}

func (l *refLexer) scanQuoted(quote byte, prefix string) (token.Token, error) {
	line, col, space := l.line, l.col, l.hasSpace
	var b strings.Builder
	b.WriteString(prefix)
	c, _ := l.advance() // opening quote
	b.WriteByte(c)
	for {
		c, ok := l.advance()
		if !ok || c == '\n' {
			return token.Token{}, &refError{File: l.file, Line: line, Col: col,
				Msg: fmt.Sprintf("unterminated %c literal", quote)}
		}
		b.WriteByte(c)
		if c == '\\' {
			// Escaped character: consume it blindly.
			c2, ok := l.advance()
			if !ok {
				return token.Token{}, &refError{File: l.file, Line: line, Col: col,
					Msg: "unterminated escape"}
			}
			b.WriteByte(c2)
			continue
		}
		if c == quote {
			break
		}
	}
	kind := token.String
	if quote == '\'' {
		kind = token.Char
	}
	l.hasSpace = false
	return token.Token{Kind: kind, Text: b.String(), File: l.file, Line: line, Col: col, HasSpace: space}, nil
}

func (l *refLexer) punct() (token.Token, error) {
	line, col, space := l.line, l.col, l.hasSpace
	// Longest-match against the punctuator table using splice-aware peeking.
	for _, p := range refPunctuators {
		if l.matches(p) {
			for range p {
				l.advance()
			}
			l.hasSpace = false
			text := p
			if canon, ok := refDigraphs[p]; ok {
				text = canon
			}
			return token.Token{Kind: token.Punct, Text: text, File: l.file, Line: line, Col: col, HasSpace: space}, nil
		}
	}
	c, _ := l.advance()
	l.hasSpace = false
	return token.Token{Kind: token.Other, Text: string([]byte{c}), File: l.file, Line: line, Col: col, HasSpace: space}, nil
}

// matches reports whether the splice-collapsed input starts with s.
func (l *refLexer) matches(s string) bool {
	save := *l
	defer func() { *l = save }()
	for i := 0; i < len(s); i++ {
		c, ok := l.peekByte()
		if !ok || c != s[i] {
			return false
		}
		l.advance()
	}
	return true
}
