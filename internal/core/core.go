// Package core is SuperC's public API: a configuration-preserving C front
// end that parses all of a program's static variability at once.
//
// A Tool bundles the two stages of the paper (Gazzillo & Grimm, PLDI 2012):
//
//  1. the configuration-preserving preprocessor (package preprocessor),
//     which resolves includes and macros while leaving static conditionals
//     intact, hoisting conditionals out of preprocessor operations; and
//  2. the Fork-Merge LR parser (package fmlr), which forks LR subparsers at
//     static conditionals and merges them after, producing one AST with
//     static choice nodes.
//
// Basic use:
//
//	tool := core.New(core.Config{
//		FS:           preprocessor.MapFS{"main.c": src},
//		IncludePaths: []string{"include"},
//	})
//	res, err := tool.ParseFile("main.c")
//	// res.AST covers every configuration; res.AST.CountChoices() etc.
//
// The Config selects the presence-condition representation (BDDs as in
// SuperC, or CNF+SAT as in the TypeChef baseline), the parser optimization
// level (Figure 8's levels), and single-configuration mode (the gcc-like
// baseline that processes one configuration like an ordinary compiler).
package core

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/cgrammar"
	"repro/internal/cond"
	"repro/internal/fmlr"
	"repro/internal/guard"
	"repro/internal/hcache"
	"repro/internal/preprocessor"
)

// Config configures a Tool.
type Config struct {
	// FS supplies source files. Defaults to the operating system.
	FS preprocessor.FileSystem
	// IncludePaths are the directories searched for #include files.
	IncludePaths []string
	// Defines are -D style command-line macro definitions.
	Defines map[string]string
	// CondMode selects the presence-condition representation:
	// cond.ModeBDD (SuperC, default) or cond.ModeSAT (TypeChef baseline).
	CondMode cond.Mode
	// Parser selects the FMLR optimization level. The zero value means
	// fmlr.OptAll (all four optimizations).
	Parser *fmlr.Options
	// SingleConfig processes exactly one configuration (conditionals are
	// evaluated concretely against Defines), like an ordinary compiler.
	SingleConfig bool
	// HeaderCache, when non-nil, shares lexed and preprocessed header
	// results across compilation units. The cache is concurrency-safe and
	// may be shared by Tools running in different goroutines; cached results
	// are replayed into each unit's own condition space.
	HeaderCache *hcache.Cache
	// Budget, when non-nil, governs every stage's resource consumption (see
	// internal/guard). On trip the pipeline degrades to a partial AST with
	// an error node and a structured diagnostic instead of hanging or
	// failing outright. Per-unit budgets can also be attached with
	// Tool.SetBudget.
	Budget *guard.Budget
	// ParseWorkers, when greater than 1, enables intra-unit parallel parsing
	// of large units: the parser splits a unit of enough tokens at balanced
	// top-level declaration boundaries and parses the regions concurrently
	// over the shared condition space, with results proven equivalent to
	// (and stitched back into) the sequential parse. Output is
	// byte-identical to sequential at any worker count. It only applies
	// when Config.Parser leaves fmlr.Options.ParseWorkers unset.
	ParseWorkers int
}

// Tool is a configured SuperC instance. A Tool processes one compilation
// unit at a time and may be reused.
type Tool struct {
	cfg    Config
	space  *cond.Space
	pp     *preprocessor.Preprocessor
	lang   *cgrammar.C
	budget *guard.Budget
}

// Result is the outcome of processing one compilation unit.
type Result struct {
	// Unit is the preprocessor output: the token forest with static
	// conditionals intact, plus preprocessing statistics and diagnostics.
	Unit *preprocessor.Unit
	// AST is the configuration-preserving syntax tree with static choice
	// nodes. Nil when every configuration failed to parse.
	AST *ast.Node
	// Parse carries the parser statistics (subparser counts, merges) and
	// configuration-aware parse diagnostics.
	Parse *fmlr.Result
}

// New creates a Tool. The C grammar tables are built once per process.
func New(cfg Config) *Tool {
	if cfg.FS == nil {
		cfg.FS = preprocessor.OSFileSystem{}
	}
	t := &Tool{cfg: cfg, space: cond.NewSpace(cfg.CondMode), lang: cgrammar.MustLoad()}
	t.pp = t.newPreprocessor(cfg.FS, cfg.Budget)
	t.SetBudget(cfg.Budget)
	return t
}

// newPreprocessor constructs a preprocessor over fs with the Tool's
// configured options — the single construction seam shared by the Tool's
// persistent instance and ParseString's per-call overlay instance.
func (t *Tool) newPreprocessor(fs preprocessor.FileSystem, budget *guard.Budget) *preprocessor.Preprocessor {
	return preprocessor.New(preprocessor.Options{
		Space:        t.space,
		FS:           fs,
		IncludePaths: t.cfg.IncludePaths,
		SingleConfig: t.cfg.SingleConfig,
		HeaderCache:  t.cfg.HeaderCache,
		Budget:       budget,
	})
}

// applyDefines seeds a preprocessor's macro table with the configured -D
// style definitions.
func (t *Tool) applyDefines(pp *preprocessor.Preprocessor) error {
	for name, body := range t.cfg.Defines {
		if err := pp.Define(name, body); err != nil {
			return fmt.Errorf("core: define %s: %w", name, err)
		}
	}
	return nil
}

// SetBudget attaches a per-unit resource budget to every stage the Tool
// runs (preprocessor, presence-condition space, parser). Pass nil to
// detach. Typical use creates a fresh guard.New budget per unit.
func (t *Tool) SetBudget(b *guard.Budget) {
	t.budget = b
	t.pp.SetBudget(b)
	t.space.SetBudget(b)
}

// Budget returns the currently attached budget (nil when ungoverned).
func (t *Tool) Budget() *guard.Budget { return t.budget }

// Space exposes the presence-condition space (for rendering conditions,
// evaluating configurations, projecting ASTs).
func (t *Tool) Space() *cond.Space { return t.space }

// Preprocessor exposes the underlying preprocessor (for macro-table
// queries).
func (t *Tool) Preprocessor() *preprocessor.Preprocessor { return t.pp }

// parserOptions resolves the configured optimization level and threads the
// attached budget through to the parser.
func (t *Tool) parserOptions() fmlr.Options {
	opts := fmlr.OptAll
	if t.cfg.Parser != nil {
		opts = *t.cfg.Parser
	}
	if opts.Budget == nil {
		opts.Budget = t.budget
	}
	if opts.ParseWorkers == 0 {
		opts.ParseWorkers = t.cfg.ParseWorkers
	}
	return opts
}

// Preprocess runs only the configuration-preserving preprocessor on the
// compilation unit rooted at path. Each unit starts from a fresh macro
// table seeded with the built-ins and the configured Defines.
func (t *Tool) Preprocess(path string) (*preprocessor.Unit, error) {
	t.pp.ResetTable()
	if err := t.applyDefines(t.pp); err != nil {
		return nil, err
	}
	return t.pp.PreprocessKeepTable(path)
}

// ParseFile preprocesses and parses the compilation unit rooted at path.
func (t *Tool) ParseFile(path string) (*Result, error) {
	unit, err := t.Preprocess(path)
	if err != nil {
		return nil, err
	}
	return t.Parse(unit), nil
}

// Parse runs the FMLR parser over a preprocessed unit.
func (t *Tool) Parse(unit *preprocessor.Unit) *Result {
	parse := fmlr.New(t.space, t.lang, t.parserOptions()).ParseUnit(unit)
	return &Result{Unit: unit, AST: parse.AST, Parse: parse}
}

// ParseString parses C source text directly (convenience for tests, small
// tools, and examples). Includes resolve against the configured FS.
func (t *Tool) ParseString(name, src string) (*Result, error) {
	pp := t.newPreprocessor(overlayFS{base: t.cfg.FS, name: name, src: src}, t.budget)
	if err := t.applyDefines(pp); err != nil {
		return nil, err
	}
	unit, err := pp.PreprocessKeepTable(name)
	if err != nil {
		return nil, err
	}
	return t.Parse(unit), nil
}

// overlayFS serves one in-memory file on top of a base file system.
type overlayFS struct {
	base preprocessor.FileSystem
	name string
	src  string
}

func (o overlayFS) ReadFile(p string) ([]byte, error) {
	if p == o.name {
		return []byte(o.src), nil
	}
	if o.base == nil {
		return nil, fmt.Errorf("file not found: %s", p)
	}
	return o.base.ReadFile(p)
}

func (o overlayFS) Exists(p string) bool {
	if p == o.name {
		return true
	}
	return o.base != nil && o.base.Exists(p)
}

// Project resolves the result's AST under one configuration (a map from
// presence-condition variables such as "(defined CONFIG_X)" to values).
func (t *Tool) Project(r *Result, assign map[string]bool) *ast.Node {
	return ast.Project(t.space, r.AST, assign)
}
