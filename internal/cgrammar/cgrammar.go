// Package cgrammar defines the C grammar used by SuperC's
// configuration-preserving parser.
//
// The paper reuses Roskind's tokenization rules and C grammar, extended with
// common gcc extensions (§5). This package encodes an ANSI C89 grammar in
// the same lineage (with C99 block items and a few gnu extensions: inline,
// typeof, asm, __attribute__, __extension__), generates LALR(1) tables with
// package lalr, and attaches the paper's AST annotations:
//
//   - passthrough: single-child productions reuse the child's value
//     (expressions nest 17 levels deep for precedence);
//   - list: left-recursive repetitions flatten into linear lists;
//   - complete: the syntactic units at which subparsers may merge —
//     declarations, definitions, statements, expressions, and members of
//     commonly configured lists (parameters, struct members, initializers,
//     enumerators) per §5.1.
//
// Classify decides every token's terminal, and it is total: a token no rule
// accepts (a stray '#', '@' or '\') classifies as STRAY, so it is a parse
// error wherever it appears. The typedef-name/identifier split is
// context-sensitive; the parser's context plugin (package symtab)
// reclassifies IDENTIFIER into TYPEDEFNAME against a configuration-dependent
// symbol table.
package cgrammar

import (
	"sync"

	"repro/internal/lalr"
	"repro/internal/token"
)

// Annotation selects how a production builds its semantic value.
type Annotation uint8

// Production annotations (paper §5.1).
const (
	AnnNode        Annotation = iota // default: generic node named after the production
	AnnPassthrough                   // reuse the sole child's value
	AnnList                          // flatten left-recursive repetition
)

// ProdInfo carries per-production AST-building metadata.
type ProdInfo struct {
	Ann Annotation
	// RegistersTypedef marks declaration productions whose reduction must
	// update the symbol table (typedef and object declarations).
	RegistersTypedef bool
	// PushScope/PopScope mark the scope helper productions.
	PushScope bool
	PopScope  bool
}

// C bundles the grammar, its parse table, annotations, and token
// classification.
type C struct {
	Grammar *lalr.Grammar
	Table   *lalr.Table
	Info    []ProdInfo // indexed by production index

	// Terminals the engine needs directly.
	Identifier  lalr.Symbol
	TypedefName lalr.Symbol
	Constant    lalr.Symbol
	StringLit   lalr.Symbol
	Stray       lalr.Symbol // tokens no rule accepts

	keywords map[string]lalr.Symbol // every spelling, gcc's variants included
	puncts   map[string]lalr.Symbol
	complete map[lalr.Symbol]bool
}

var (
	buildOnce sync.Once
	built     *C
	buildErr  error
)

// Load returns the singleton C grammar with generated tables (building them
// on first use; construction takes a few ms and the result is immutable).
func Load() (*C, error) {
	buildOnce.Do(func() {
		built, buildErr = build()
	})
	return built, buildErr
}

// MustLoad is Load, panicking on error (the grammar is a constant of the
// program; failure is a programming error).
func MustLoad() *C {
	c, err := Load()
	if err != nil {
		panic(err)
	}
	return c
}

// keywords of C89, the C99/C11 ones the grammar has rules for, and
// supported gnu extensions. All reclassification happens at parse time: the
// lexer emits plain identifiers.
var keywordList = []string{
	"auto", "break", "case", "char", "const", "continue", "default", "do",
	"double", "else", "enum", "extern", "float", "for", "goto", "if", "int",
	"long", "register", "return", "short", "signed", "sizeof", "static",
	"struct", "switch", "typedef", "union", "unsigned", "void", "volatile",
	"while",
	// C99/C11
	"_Bool", "_Noreturn", "_Thread_local",
	// gnu extensions
	"inline", "typeof", "asm", "__attribute__", "restrict", "__extension__",
}

// keywordSpellings maps every spelling of a keyword, gcc's variants
// included, to the canonical keyword that names its terminal.
var keywordSpellings = func() map[string]string {
	m := map[string]string{
		"__inline":     "inline",
		"__inline__":   "inline",
		"__typeof":     "typeof",
		"__typeof__":   "typeof",
		"__asm":        "asm",
		"__asm__":      "asm",
		"__attribute":  "__attribute__",
		"__const":      "const",
		"__const__":    "const",
		"__volatile":   "volatile",
		"__volatile__": "volatile",
		"__restrict":   "restrict",
		"__restrict__": "restrict",
		"__signed__":   "signed",
	}
	for _, kw := range keywordList {
		m[kw] = kw
	}
	return m
}()

// Keyword reports whether an identifier-shaped word is a C keyword (or a
// gcc spelling of one) rather than a programmer-chosen name, and gives its
// canonical spelling. The lexer emits keywords as plain identifiers, so AST
// consumers that care about the ordinary identifier namespace, or compare
// specifiers by spelling, ask here.
func Keyword(word string) (canonical string, ok bool) {
	canonical, ok = keywordSpellings[word]
	return canonical, ok
}

var punctList = []string{
	"[", "]", "(", ")", "{", "}", ".", "->", "++", "--", "&", "*", "+", "-",
	"~", "!", "/", "%", "<<", ">>", "<", ">", "<=", ">=", "==", "!=", "^",
	"|", "&&", "||", "?", ":", ";", "...", "=", "*=", "/=", "%=", "+=",
	"-=", "<<=", ">>=", "&=", "^=", "|=", ",",
}

// completeNonterminals are the syntactic units at which subparsers merge
// (paper §5.1's balance: enough to keep subparser counts bounded on
// configured lists, few enough to keep choice nodes manageable).
var completeNonterminals = []string{
	"TranslationUnit", "ExternalDeclarationList", "ExternalDeclaration", "FunctionDefinition",
	"Declaration", "Statement", "BlockItem", "BlockItemList",
	"Expression", "AssignmentExpression", "ConditionalExpression",
	"ParameterDeclaration", "StructDeclaration", "StructDeclarationList",
	"Initializer", "InitializerList", "InitializerItem", "Enumerator", "EnumeratorList",
	"DeclarationSpecifiers", "InitDeclaratorList", "IdentifierList",
	"ArgumentExpressionList", "DeclarationList",
}

// build constructs the singleton C grammar, obtaining its parse table from
// the on-disk cache when a valid entry exists (see cache.go) and generating
// it otherwise.
func build() (*C, error) {
	c, info := newSkeleton()
	table, err := tableFor(c.Grammar)
	if err != nil {
		return nil, err
	}
	finish(c, info, table)
	return c, nil
}

// newSkeleton declares the full grammar — symbols, rules, annotations — but
// does not generate the parse table, which is the dominant cost and the
// part the cache avoids.
func newSkeleton() (*C, *infoBuilder) {
	g := lalr.NewGrammar()
	c := &C{
		Grammar:  g,
		keywords: make(map[string]lalr.Symbol),
		puncts:   make(map[string]lalr.Symbol),
		complete: make(map[lalr.Symbol]bool),
	}
	c.Identifier = g.Terminal("IDENTIFIER")
	c.TypedefName = g.Terminal("TYPEDEFNAME")
	c.Constant = g.Terminal("CONSTANT")
	c.StringLit = g.Terminal("STRING")
	c.Stray = g.Terminal("STRAY")
	for _, kw := range keywordList {
		c.keywords[kw] = g.Terminal(kw)
	}
	for spelling, kw := range keywordSpellings {
		c.keywords[spelling] = c.keywords[kw]
	}
	for _, p := range punctList {
		c.puncts[p] = g.Terminal(p)
	}

	g.SetStart("TranslationUnit")

	info := newInfoBuilder(g, c)
	defineExpressions(g, info)
	defineDeclarations(g, info)
	defineStatements(g, info)
	defineTopLevel(g, info)
	return c, info
}

// finish attaches a parse table to the skeleton. The table may come from
// lalr.Build on c.Grammar itself or from the cache; in the latter case the
// decoded grammar replica is adopted wholesale so that production indices,
// reduce actions, and symbol lookups all resolve against one grammar object
// (symbol and production indices are identical by construction — the cache
// loader validates this before finish runs).
func finish(c *C, info *infoBuilder, table *lalr.Table) {
	c.Grammar = table.Grammar
	c.Table = table
	c.Info = info.finish(len(c.Grammar.Productions()))
	for _, name := range completeNonterminals {
		if s, ok := c.Grammar.Lookup(name); ok {
			c.complete[s] = true
		}
	}
}

// Rebuild constructs a fresh C with newly generated tables, bypassing both
// the package singleton and the table cache. It is the reference against
// which cached tables are verified in tests; embedders should use Load.
func Rebuild() (*C, error) {
	c, info := newSkeleton()
	table, err := lalr.Build(c.Grammar)
	if err != nil {
		return nil, err
	}
	finish(c, info, table)
	return c, nil
}

// IsComplete reports whether the nonterminal is a complete syntactic unit
// (merge point).
func (c *C) IsComplete(s lalr.Symbol) bool { return c.complete[s] }

// Classify maps a preprocessed token to its terminal symbol. It is total:
// EOF maps to the grammar's end marker, and a token no rule accepts ('#',
// '##', any token.Other) to STRAY. Identifiers that name types must be
// reclassified to TYPEDEFNAME by the caller's context plugin; Classify
// always returns IDENTIFIER for words that are not keywords.
func (c *C) Classify(t *token.Token) lalr.Symbol {
	switch t.Kind {
	case token.Identifier:
		if s, ok := c.keywords[t.Text]; ok {
			return s
		}
		return c.Identifier
	case token.Number, token.Char:
		return c.Constant
	case token.String:
		return c.StringLit
	case token.Punct:
		if s, ok := c.puncts[t.Text]; ok {
			return s
		}
	case token.EOF:
		return c.Grammar.EOF()
	}
	return c.Stray
}

// infoBuilder records per-production metadata as rules are declared.
type infoBuilder struct {
	g    *lalr.Grammar
	c    *C
	info map[int]ProdInfo
}

func newInfoBuilder(g *lalr.Grammar, c *C) *infoBuilder {
	return &infoBuilder{g: g, c: c, info: make(map[int]ProdInfo)}
}

func (b *infoBuilder) finish(n int) []ProdInfo {
	out := make([]ProdInfo, n)
	for i, pi := range b.info {
		if i < n {
			out[i] = pi
		}
	}
	return out
}

// rule declares a default-annotation production.
func (b *infoBuilder) rule(lhs string, rhs ...string) *lalr.Production {
	return b.g.Rule(lhs, rhs...)
}

// pass declares a passthrough production (value = sole child).
func (b *infoBuilder) pass(lhs string, rhs ...string) *lalr.Production {
	p := b.g.Rule(lhs, rhs...)
	b.info[p.Index] = ProdInfo{Ann: AnnPassthrough}
	return p
}

// list declares a list production.
func (b *infoBuilder) list(lhs string, rhs ...string) *lalr.Production {
	p := b.g.Rule(lhs, rhs...)
	b.info[p.Index] = ProdInfo{Ann: AnnList}
	return p
}

// mark sets extra flags on a production.
func (b *infoBuilder) mark(p *lalr.Production, f func(*ProdInfo)) {
	pi := b.info[p.Index]
	f(&pi)
	b.info[p.Index] = pi
}
