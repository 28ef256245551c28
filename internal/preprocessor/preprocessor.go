package preprocessor

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/cexpr"
	"repro/internal/cond"
	"repro/internal/guard"
	"repro/internal/guard/faultinject"
	"repro/internal/hcache"
	"repro/internal/lexer"
	"repro/internal/token"
)

// Options configures a Preprocessor.
type Options struct {
	Space        *cond.Space // required
	FS           FileSystem  // required
	IncludePaths []string    // directories searched for includes
	// SingleConfig selects single-configuration ("gcc-like") mode: static
	// conditionals are evaluated concretely against the macro table and only
	// one branch survives; the output contains no conditionals. This is the
	// paper's §6.3 performance baseline.
	SingleConfig bool
	// MaxIncludeDepth bounds include recursion (default 128).
	MaxIncludeDepth int
	// HeaderCache, when non-nil, shares lexed and preprocessed header
	// results across units (and across Preprocessors, including concurrent
	// ones — the cache is concurrency-safe even though a Preprocessor is
	// not). Ignored in single-configuration mode, whose concrete conditional
	// evaluation does not fit the cache's fingerprint model.
	HeaderCache *hcache.Cache
	// Budget, when non-nil, governs the unit's resource consumption (see
	// internal/guard). On trip the preprocessor stops early and returns the
	// partial forest with a budget diagnostic; it never errors or hangs.
	Budget *guard.Budget
}

// Diagnostic is a preprocessing error or warning.
type Diagnostic struct {
	Tok     token.Token
	Msg     string
	Warning bool
}

func (d Diagnostic) String() string {
	kind := "error"
	if d.Warning {
		kind = "warning"
	}
	return fmt.Sprintf("%s: %s: %s", d.Tok.Pos(), kind, d.Msg)
}

// CondRecord is a condition-carrying observation the preprocessor makes for
// the analysis passes: a directive position, the presence condition under
// which the observation holds, and a short message. Unlike Diagnostic it is
// not itself an error — the analysis framework decides what to report and
// attaches SAT-checked witnesses.
type CondRecord struct {
	Tok  token.Token
	Cond cond.Cond
	Msg  string
}

// Unit is the result of preprocessing one compilation unit: the token forest
// with static conditionals intact, per-unit statistics, and diagnostics.
type Unit struct {
	File string
	// Chunks is the unit's top level: dense True-condition token runs
	// interleaved with materialized conditionals. Always non-nil (empty for
	// an empty unit); EnsureSegments converts it to the segment forest on
	// demand.
	Chunks []Chunk
	Stats  UnitStats
	Diags  []Diagnostic

	// segments caches EnsureSegments' materialization (nil until then).
	segments []Segment

	// Analysis records, consumed by internal/analysis passes.
	Errors       []CondRecord // #error directives with their reachability conditions
	DeadBranches []CondRecord // conditional branches infeasible in their nesting context
	MacroRedefs  []CondRecord // macro redefinitions overlapping an earlier definition (Msg = name)
	Unguarded    []string     // headers included without a recognizable include guard, sorted

	// Deps and Probes are the unit's read set, sorted and deduplicated:
	// every file it read (the root file too) with its content hash, and
	// every include-resolution existence check with its outcome, including
	// those a Level-2 replay stood in for. The unit's output holds while
	// hcache.Memo.Holds does. Filled only when a header cache is attached, whose
	// hashes they are.
	Deps   []hcache.Dep
	Probes []hcache.Probe
}

// Preprocessor is SuperC's configuration-preserving preprocessor. A
// Preprocessor may process several units; the macro table persists across
// them only if Reset is not called (units normally get a fresh table, as
// each compilation unit is independent).
type Preprocessor struct {
	space        *cond.Space
	fs           FileSystem
	includePaths []string
	singleConfig bool
	maxInclude   int

	macros       *MacroTable
	stats        *UnitStats
	diags        []Diagnostic
	includeDepth int
	condDepth    int
	guardOf      map[string]string // file -> guard macro name ("" = none)
	timesInc     map[string]int    // file -> times included
	counter      int               // __COUNTER__ state
	errRecs      []CondRecord      // #error observations for the analysis passes
	deadRecs     []CondRecord      // context-infeasible branch observations

	// cw is the active unit's chunk writer: the root-level output frame
	// routes its segments here instead of accumulating a segment slab. Nil
	// outside PreprocessKeepTable.
	cw *chunkWriter

	// budget is the unit's resource governor (nil: ungoverned).
	budget *guard.Budget

	// Cross-unit header cache state (nil/empty when disabled).
	hcache    *hcache.Cache
	cfgKey    string       // configuration fingerprint mixed into cache keys
	recorders []*headerRec // active recordings, innermost last
	deps      []hcache.Dep // the unit's read set (see Unit.Deps)
	probes    []hcache.Probe
	files     *hcache.Memo // the unit's view of fs for replay checks
	exporter  *cond.Exporter
	importer  *cond.Importer
}

// nextCounter returns successive __COUNTER__ values. The counter is unit-
// global state the header-cache fingerprint cannot capture, so any use
// poisons active recordings.
func (p *Preprocessor) nextCounter() int {
	p.poisonRecorders()
	v := p.counter
	p.counter++
	return v
}

// New returns a preprocessor with a fresh macro table seeded with built-ins.
func New(opts Options) *Preprocessor {
	if opts.Space == nil {
		panic("preprocessor: Options.Space is required")
	}
	if opts.FS == nil {
		panic("preprocessor: Options.FS is required")
	}
	maxInc := opts.MaxIncludeDepth
	if maxInc == 0 {
		maxInc = 128
	}
	p := &Preprocessor{
		space:        opts.Space,
		fs:           opts.FS,
		includePaths: opts.IncludePaths,
		singleConfig: opts.SingleConfig,
		maxInclude:   maxInc,
		guardOf:      make(map[string]string),
		timesInc:     make(map[string]int),
	}
	p.budget = opts.Budget
	if opts.HeaderCache != nil && !opts.SingleConfig {
		p.hcache = opts.HeaderCache
		p.exporter = opts.Space.NewExporter()
		p.importer = opts.Space.NewImporter()
		p.cfgKey = configKey(opts, maxInc)
	}
	p.resetTable()
	return p
}

// ResetTable discards all macro definitions and reinstalls the built-ins.
// Use before Define + PreprocessKeepTable to process a fresh unit with
// command-line definitions.
func (p *Preprocessor) ResetTable() { p.resetTable() }

// resetTable installs a fresh macro table seeded with the built-ins.
func (p *Preprocessor) resetTable() {
	p.macros = NewMacroTable(p.space)
	if p.hcache != nil {
		p.macros.obs = p
	}
	for name, body := range DefaultBuiltins {
		toks, err := lexer.Lex("<builtin>", []byte(body))
		if err != nil {
			continue
		}
		p.macros.Define(name, &MacroDef{Name: name, Body: lexer.StripEOF(toks)}, p.space.True())
	}
	// Built-in installs are not user definitions: zero the counters.
	p.macros.Definitions = 0
}

// Macros exposes the macro table (for the parser's defined-ness queries and
// for tests).
func (p *Preprocessor) Macros() *MacroTable { return p.macros }

// SetBudget attaches a resource budget for subsequent units (nil detaches).
func (p *Preprocessor) SetBudget(b *guard.Budget) { p.budget = b }

// Define installs a command-line style definition (-D) under the True
// condition. Call before Preprocess.
func (p *Preprocessor) Define(name, body string) error {
	toks, err := lexer.Lex("<cmdline>", []byte(body))
	if err != nil {
		return err
	}
	p.macros.Define(name, &MacroDef{Name: name, Body: lexer.StripEOF(toks)}, p.space.True())
	p.macros.Definitions--
	return nil
}

// Preprocess processes one compilation unit starting at path, returning the
// configuration-preserving token forest. The macro table is reset first (a
// compilation unit stands alone).
func (p *Preprocessor) Preprocess(path string) (*Unit, error) {
	p.resetTable()
	return p.PreprocessKeepTable(path)
}

// PreprocessKeepTable is Preprocess without resetting the macro table,
// allowing callers to pre-install definitions with Define.
func (p *Preprocessor) PreprocessKeepTable(path string) (*Unit, error) {
	p.stats = &UnitStats{File: path}
	p.diags = nil
	p.includeDepth = 0
	p.condDepth = 0
	p.counter = 0
	p.timesInc = make(map[string]int)
	p.recorders = nil
	p.deps, p.probes = nil, nil
	if p.hcache != nil {
		p.files = hcache.NewMemo(p.fs)
	}
	p.errRecs = nil
	p.deadRecs = nil
	p.macros.Redefs = nil

	faultinject.At(faultinject.PointPreprocess, path, p.budget)
	p.budget.Tick("preprocessor")
	cw := &chunkWriter{}
	p.cw = cw
	segs, err := p.processFile(path, p.space.True())
	p.cw = nil
	if err != nil {
		return nil, err
	}
	// The root frame routed everything into the chunk writer, so segs is
	// empty (add is a no-op safety net).
	cw.add(segs...)
	chunks := cw.finish()
	ntokens := cw.ntokens
	if d := p.budget.Trip(); d != nil {
		// Degradation, not failure: the forest built so far is the unit's
		// partial output, annotated with the structured trip diagnostic.
		p.budget.Annotate("", fmt.Sprintf("%d tokens preprocessed before trip", ntokens))
		p.diags = append(p.diags, Diagnostic{Tok: token.Token{File: path}, Msg: d.Error(), Warning: true})
	}
	p.stats.Tokens = ntokens
	u := &Unit{
		File:         path,
		Chunks:       chunks,
		Stats:        *p.stats,
		Diags:        p.diags,
		Errors:       p.errRecs,
		DeadBranches: p.deadRecs,
		Unguarded:    p.unguardedHeaders(),
		Deps:         sortedSet(p.deps, func(d hcache.Dep) string { return d.Path }),
		Probes:       sortedSet(p.probes, func(pr hcache.Probe) string { return pr.Path }),
	}
	for _, r := range p.macros.Redefs {
		u.MacroRedefs = append(u.MacroRedefs, CondRecord{
			Tok:  token.Token{File: path},
			Cond: r.Overlap,
			Msg:  r.Name,
		})
	}
	return u, nil
}

// unguardedHeaders lists files included this unit that have no recognized
// include guard, in sorted order. Both maps consulted here are per-unit and
// replay-coherent (the header cache re-creates their entries via opTimesInc
// and opGuardOf), so the list is the same whether headers came from the cache
// or a fresh read. The entry file itself is never in timesInc.
func (p *Preprocessor) unguardedHeaders() []string {
	var out []string
	for path := range p.timesInc {
		if g, ok := p.guardOf[path]; !ok || g == "" {
			out = append(out, path)
		}
	}
	sort.Strings(out)
	return out
}

func (p *Preprocessor) errorf(tok token.Token, format string, args ...interface{}) {
	p.diags = append(p.diags, Diagnostic{Tok: tok, Msg: fmt.Sprintf(format, args...)})
}

func (p *Preprocessor) warnf(tok token.Token, format string, args ...interface{}) {
	p.diags = append(p.diags, Diagnostic{Tok: tok, Msg: fmt.Sprintf(format, args...), Warning: true})
}

// processFile lexes and processes one file under presence condition c.
func (p *Preprocessor) processFile(path string, c cond.Cond) ([]Segment, error) {
	src, err := p.fs.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var hash string
	if p.hcache != nil {
		hash = hcache.Hash(src)
		p.noteDep(path, hash)
	}
	return p.processFileSrc(path, src, hash, c)
}

// processFileSrc processes pre-read file contents, consulting the Level-1
// cache (lexed tokens, line segmentation, guard detection keyed by path and
// content hash — pure work, independent of macro state) when enabled.
func (p *Preprocessor) processFileSrc(path string, src []byte, hash string, c cond.Cond) ([]Segment, error) {
	p.stats.Bytes += len(src)
	var lines [][]token.Token
	var guard string
	var cached *hcache.LexEntry
	if p.hcache != nil {
		cached, _ = p.hcache.LookupLex(path + "\x00" + hash)
	}
	if cached != nil {
		lines, guard = cached.Lines, cached.Guard
	} else {
		faultinject.At(faultinject.PointLex, path, p.budget)
		lexStart := time.Now()
		toks, err := lexer.LexBudget(path, src, p.budget)
		p.stats.LexTime += time.Since(lexStart)
		if err != nil {
			return nil, err
		}
		toks = lexer.StripEOF(toks)
		lines = splitLines(toks)
		guard = detectGuard(lines)
		if p.hcache != nil && !p.budget.Tripped() {
			p.hcache.StoreLex(path+"\x00"+hash, &hcache.LexEntry{
				Lines: lines,
				Guard: guard,
				Bytes: len(src),
			})
		}
	}
	if guard != "" {
		p.setGuardOf(path, guard)
		p.macros.MarkGuard(guard)
	}
	return p.processLines(lines, c, path)
}

// splitLines groups tokens into logical lines (Newline tokens removed).
// Each line is a view of toks clipped to its own length, so the lines share
// one array and appending to a line copies it.
func splitLines(toks []token.Token) [][]token.Token {
	var lines [][]token.Token
	start := 0
	for i, t := range toks {
		if t.Kind == token.Newline {
			lines = append(lines, toks[start:i:i])
			start = i + 1
		}
	}
	if start < len(toks) {
		lines = append(lines, toks[start:len(toks):len(toks)])
	}
	return lines
}

// isDirective reports whether the line is a preprocessor directive and
// returns its name ("" for the null directive) and argument tokens.
func isDirective(line []token.Token) (name string, args []token.Token, ok bool) {
	if len(line) == 0 || !line[0].Is("#") {
		return "", nil, false
	}
	if len(line) == 1 {
		return "", nil, true // null directive
	}
	if line[1].Kind != token.Identifier {
		return "", nil, false
	}
	return line[1].Text, line[2:], true
}

// detectGuard recognizes the include-guard pattern (paper §3.2 rule 4a,
// modeled on gcc): the file's first directive tests !defined(G), is followed
// by #define G, and the matching #endif ends the file.
func detectGuard(lines [][]token.Token) string {
	type dline struct {
		name string
		args []token.Token
	}
	var dirs []dline
	trailingTokens := false
	firstDirSeen := false
	for _, line := range lines {
		if len(line) == 0 {
			continue
		}
		if name, args, ok := isDirective(line); ok {
			dirs = append(dirs, dline{name, args})
			firstDirSeen = true
			trailingTokens = false
			continue
		}
		if !firstDirSeen {
			return "" // tokens before the guard conditional
		}
		trailingTokens = true
	}
	if len(dirs) < 3 || trailingTokens {
		return ""
	}
	// First directive: #ifndef G or #if !defined(G) / #if !defined G.
	var guard string
	first := dirs[0]
	switch first.name {
	case "ifndef":
		if len(first.args) == 1 && first.args[0].Kind == token.Identifier {
			guard = first.args[0].Text
		}
	case "if":
		a := first.args
		if len(a) >= 3 && a[0].Is("!") && a[1].IsIdent("defined") {
			if len(a) == 3 && a[2].Kind == token.Identifier {
				guard = a[2].Text
			} else if len(a) == 5 && a[2].Is("(") && a[3].Kind == token.Identifier && a[4].Is(")") {
				guard = a[3].Text
			}
		}
	}
	if guard == "" {
		return ""
	}
	// Second directive: #define G.
	second := dirs[1]
	if second.name != "define" || len(second.args) == 0 || second.args[0].Text != guard {
		return ""
	}
	// The matching #endif must be the last directive: depth returns to zero
	// exactly at the end.
	depth := 0
	for i, d := range dirs {
		switch d.name {
		case "if", "ifdef", "ifndef":
			depth++
		case "endif":
			depth--
			if depth == 0 && i != len(dirs)-1 {
				return ""
			}
		}
	}
	if depth != 0 || dirs[len(dirs)-1].name != "endif" {
		return ""
	}
	return guard
}

// outFrame accumulates output for one nesting level: expanded segments in
// out, unexpanded trailing segments in pending. Conditionals enter pending
// so that macro invocations spanning conditional boundaries can be hoisted
// during a later expansion pass over the pending list.
type outFrame struct {
	cond    cond.Cond
	out     []Segment
	pending []Segment
	// sink, when non-nil, receives this frame's expanded output instead of
	// out. Only the unit's root frame has a sink; branch frames always
	// materialize (hoisting needs the buffered segments).
	sink *chunkWriter
}

func (f *outFrame) appendPending(segs ...Segment) {
	f.pending = append(f.pending, segs...)
}

// flush expands pending and moves it to out.
func (p *Preprocessor) flush(f *outFrame) {
	if len(f.pending) == 0 {
		return
	}
	segs := p.expandSegments(f.pending, f.cond, 0)
	if f.sink != nil {
		f.sink.add(segs...)
	} else {
		f.out = append(f.out, segs...)
	}
	f.pending = nil
}

// take returns out ++ pending, expanding pending when it is self-contained
// (balanced and not ending in a callable macro name); otherwise pending is
// left raw for the enclosing level to expand, enabling invocations that
// span the conditional boundary.
func (p *Preprocessor) take(f *outFrame) []Segment {
	if len(f.pending) > 0 && p.selfContained(f.pending, f.cond) {
		p.flush(f)
	}
	segs := append(f.out, f.pending...)
	f.out, f.pending = nil, nil
	return segs
}

// selfContained reports whether the pending segments can be expanded in
// isolation: plain tokens with balanced parentheses not ending in an active
// function-like macro name.
func (p *Preprocessor) selfContained(segs []Segment, c cond.Cond) bool {
	depth := 0
	for _, s := range segs {
		if s.Cond != nil {
			return false
		}
		switch {
		case s.Tok.Is("("):
			depth++
		case s.Tok.Is(")"):
			depth--
			if depth < 0 {
				return false
			}
		}
	}
	if depth != 0 {
		return false
	}
	if len(segs) > 0 {
		last := segs[len(segs)-1].Tok
		if last.Kind == token.Identifier && !last.Hide.Contains(last.Text) {
			if defs, _ := p.macros.Lookup(last.Text, c); anyFuncLike(defs) {
				return false
			}
		}
	}
	return true
}

// condFrame tracks one open static conditional.
type condFrame struct {
	base     cond.Cond // condition outside this conditional
	taken    cond.Cond // disjunction of previous branch conditions
	branches []Branch  // committed feasible branches
	rel      cond.Cond // current branch's condition
	skip     bool      // current branch is infeasible: drop its content
	errInfe  bool      // current branch hit #error: drop at commit
	out      outFrame  // current branch accumulation
	sawElse  bool
	inert    bool // frame opened inside a dropped branch: track nesting only
	lit      bool // opened by a literal "#if 0"/"#if 1": intentional toggle, not analyzed
	// varBranch marks that some earlier branch condition was genuinely
	// configuration-dependent (neither concretely true nor false). A later
	// branch left unreachable purely by concrete branches (e.g. #else after
	// #ifdef of a macro the unit defines) is ordinary preprocessing, not a
	// dead block; only variable coverage makes unreachability reportable.
	varBranch bool
}

// recordDeadBranch notes a branch that is infeasible in its nesting context
// for the deadbranch analysis pass. Such branches are genuine oddities (the
// undertaker-style "dead #ifdef block"), so the record is rare; it cannot be
// regenerated from a cached-header replay, so active recordings are poisoned.
func (p *Preprocessor) recordDeadBranch(tok token.Token, c cond.Cond, msg string) {
	p.poisonRecorders()
	p.deadRecs = append(p.deadRecs, CondRecord{Tok: tok, Cond: c, Msg: msg})
}

// litConstArg reports whether a conditional's argument list is the single
// pp-number 0 or 1 — the conventional way to toggle a region off or on, which
// the dead-branch analysis deliberately ignores.
func litConstArg(args []token.Token) bool {
	return len(args) == 1 && (args[0].Text == "0" || args[0].Text == "1")
}

// processLines runs the directive machine over one file's lines.
func (p *Preprocessor) processLines(lines [][]token.Token, fileCond cond.Cond, file string) ([]Segment, error) {
	unit := &outFrame{cond: fileCond}
	if p.includeDepth == 0 {
		// Unit root: expanded output goes straight to the chunk writer.
		// Included files and conditional branches still materialize segment
		// slices below this frame.
		unit.sink = p.cw
	}
	var stack []*condFrame

	curFrame := func() *outFrame {
		if len(stack) > 0 {
			return &stack[len(stack)-1].out
		}
		return unit
	}
	curCond := func() cond.Cond {
		if len(stack) > 0 {
			top := stack[len(stack)-1]
			return p.space.And(top.base, top.rel)
		}
		return fileCond
	}
	skipping := func() bool {
		return len(stack) > 0 && stack[len(stack)-1].skip
	}
	flushAll := func() {
		p.flush(unit)
		for _, fr := range stack {
			if !fr.skip {
				p.flush(&fr.out)
			}
		}
	}
	// commitBranch finalizes the current branch of the top frame.
	commitBranch := func() {
		top := stack[len(stack)-1]
		if top.skip || top.errInfe || p.space.IsFalse(p.space.And(top.base, top.rel)) {
			top.out = outFrame{}
			return
		}
		segs := p.take(&top.out)
		if len(segs) > 0 {
			top.branches = append(top.branches, Branch{Cond: top.rel, Segs: segs})
		}
		top.taken = p.space.Or(top.taken, top.rel)
	}
	// beginBranch starts a new branch with relative condition rel.
	beginBranch := func(top *condFrame, rel cond.Cond) {
		top.rel = rel
		full := p.space.And(top.base, rel)
		top.skip = p.space.IsFalse(full)
		top.errInfe = false
		top.out = outFrame{cond: full}
	}

	for _, line := range lines {
		if !p.budget.Tick("preprocessor") {
			// Budget tripped: whatever partial expansion a recording has
			// seen must not enter the shared header cache, then unwind.
			p.poisonRecorders()
			p.budget.Annotate(p.space.String(fileCond), "")
			break
		}
		if len(line) == 0 {
			continue
		}
		name, args, isDir := isDirective(line)
		if !isDir {
			if skipping() {
				continue
			}
			curFrame().appendPending(TokensOf(line)...)
			continue
		}
		p.stats.Directives++
		switch name {
		case "":
			// Null directive.
		case "define":
			if skipping() {
				continue
			}
			flushAll()
			p.handleDefine(args, curCond())
		case "undef":
			if skipping() {
				continue
			}
			flushAll()
			if len(args) == 1 && args[0].Kind == token.Identifier {
				p.macros.Undefine(args[0].Text, curCond())
				p.stats.Undefs++
			} else {
				p.errorf(line[0], "malformed #undef")
			}
		case "include", "include_next":
			if skipping() {
				continue
			}
			flushAll()
			segs := p.handleInclude(args, curCond(), file, line[0], name == "include_next")
			cf := curFrame()
			if cf.sink != nil {
				cf.sink.add(segs...)
			} else {
				cf.out = append(cf.out, segs...)
			}
		case "if", "ifdef", "ifndef":
			p.condDepth++
			if p.condDepth > p.stats.MaxCondDepth {
				p.stats.MaxCondDepth = p.condDepth
			}
			if skipping() {
				// Inside a dropped branch: push an inert frame to track
				// nesting without evaluating the expression.
				stack = append(stack, &condFrame{base: p.space.False(), taken: p.space.True(), rel: p.space.False(), skip: true, inert: true})
				continue
			}
			p.stats.Conditionals++
			base := curCond()
			rel := p.evalConditionalDirective(name, args, base, line[0])
			fr := &condFrame{base: base, taken: p.space.False(), lit: name == "if" && litConstArg(args)}
			stack = append(stack, fr)
			beginBranch(fr, rel)
			fr.taken = rel // taken accumulates at commit; seed here for elif math
			fr.varBranch = !p.space.IsTrue(rel) && !p.space.IsFalse(rel)
			if !fr.lit && !p.space.IsFalse(rel) && p.space.IsFalse(p.space.And(base, rel)) {
				// The branch condition is satisfiable on its own but
				// contradicts the enclosing conditionals: a dead block.
				p.recordDeadBranch(line[0], rel, fmt.Sprintf("#%s branch contradicts enclosing conditionals", name))
			}
		case "elif", "else":
			if len(stack) == 0 {
				p.errorf(line[0], "#%s without #if", name)
				continue
			}
			top := stack[len(stack)-1]
			if top.inert {
				continue
			}
			if top.sawElse {
				p.errorf(line[0], "#%s after #else", name)
				continue
			}
			commitBranch()
			remaining := p.space.Not(top.taken)
			if name == "else" {
				top.sawElse = true
				beginBranch(top, remaining)
				if !top.lit && p.space.IsFalse(p.space.And(top.base, remaining)) {
					switch {
					case !p.space.IsFalse(remaining):
						p.recordDeadBranch(line[0], remaining, "#else branch contradicts enclosing conditionals")
					case top.varBranch:
						// The record's condition is the context that reaches
						// the directive (remaining itself is unsatisfiable —
						// that is the finding).
						p.recordDeadBranch(line[0], top.base, "#else unreachable: earlier branches cover all configurations")
					}
				}
				top.taken = p.space.True()
				continue
			}
			p.stats.Conditionals++
			rel := p.space.And(remaining, p.evalConditionalDirective("if", args, p.space.And(top.base, remaining), line[0]))
			beginBranch(top, rel)
			if !top.lit && !litConstArg(args) && p.space.IsFalse(p.space.And(top.base, rel)) {
				switch {
				case !p.space.IsFalse(rel):
					p.recordDeadBranch(line[0], rel, "#elif branch contradicts enclosing conditionals")
				case p.space.IsFalse(remaining) && top.varBranch:
					p.recordDeadBranch(line[0], top.base, "#elif unreachable: earlier branches cover all configurations")
				}
			}
			if !p.space.IsTrue(rel) && !p.space.IsFalse(rel) {
				top.varBranch = true
			}
			top.taken = p.space.Or(top.taken, rel)
		case "endif":
			if len(stack) == 0 {
				p.errorf(line[0], "#endif without #if")
				continue
			}
			p.condDepth--
			top := stack[len(stack)-1]
			if top.inert {
				stack = stack[:len(stack)-1]
				continue
			}
			// Commit the final branch, then pop.
			commitBranch()
			stack = stack[:len(stack)-1]
			switch {
			case len(top.branches) == 0:
			case len(top.branches) == 1 && p.space.IsTrue(top.branches[0].Cond):
				// Degenerate conditional (single always-true branch, e.g.
				// "#if 1" or any conditional in single-configuration mode):
				// splice the content inline.
				curFrame().appendPending(top.branches[0].Segs...)
			default:
				curFrame().appendPending(CondSeg(&Conditional{Branches: top.branches}))
			}
		case "error":
			if skipping() {
				continue
			}
			p.stats.ErrorDirectives++
			msg := tokensText(args)
			// Record the directive with its reachability condition for the
			// errreach analysis pass. The record cannot be regenerated from a
			// cached-header replay, so active recordings are poisoned (#error
			// in a shared header is rare enough that this costs nothing).
			p.poisonRecorders()
			p.errRecs = append(p.errRecs, CondRecord{Tok: line[0], Cond: curCond(), Msg: msg})
			if len(stack) == 0 {
				p.errorf(line[0], "#error %s", msg)
			} else {
				// Branch becomes infeasible and its content is dropped
				// (paper: error branches are ignored and not parsed).
				top := stack[len(stack)-1]
				top.errInfe = true
				top.skip = true
			}
		case "warning":
			if skipping() {
				continue
			}
			p.stats.WarningDirectives++
			p.warnf(line[0], "#warning %s", tokensText(args))
		case "pragma":
			if !skipping() {
				p.stats.PragmaDirectives++
			}
		case "line":
			if !skipping() {
				p.stats.LineDirectives++
			}
		default:
			if !skipping() {
				p.errorf(line[0], "unknown directive #%s", name)
			}
		}
	}
	if p.budget.Tripped() {
		// A tripped unit legitimately stops mid-conditional; reporting the
		// open frames as unterminated would be misleading. Salvage their
		// committed branches so the partial forest keeps as much feasible
		// content as possible.
		for i := len(stack) - 1; i >= 0; i-- {
			top := stack[i]
			if top.inert || len(top.branches) == 0 {
				continue
			}
			if unit.sink != nil {
				unit.sink.add(CondSeg(&Conditional{Branches: top.branches}))
			} else {
				unit.out = append(unit.out, CondSeg(&Conditional{Branches: top.branches}))
			}
		}
	} else {
		for range stack {
			p.errorf(token.Token{File: file}, "unterminated #if")
		}
	}
	p.flush(unit)
	return unit.out, nil
}

func tokensText(toks []token.Token) string {
	var b strings.Builder
	for i, t := range toks {
		if i > 0 && t.HasSpace {
			b.WriteByte(' ')
		}
		b.WriteString(t.Text)
	}
	return b.String()
}

// handleDefine parses and records a #define line.
func (p *Preprocessor) handleDefine(args []token.Token, c cond.Cond) {
	if len(args) == 0 || args[0].Kind != token.Identifier {
		p.errorf(token.Token{}, "malformed #define")
		return
	}
	name := args[0]
	def := &MacroDef{Name: name.Text}
	rest := args[1:]
	// Function-like only when "(" immediately follows the name.
	if len(rest) > 0 && rest[0].Is("(") && !rest[0].HasSpace {
		def.FuncLike = true
		i := 1
		for i < len(rest) && !rest[i].Is(")") {
			t := rest[i]
			switch {
			case t.Kind == token.Identifier:
				def.Params = append(def.Params, t.Text)
				// gcc named variadics: name...
				if i+1 < len(rest) && rest[i+1].Is("...") {
					def.Variadic = true
					i++
				}
			case t.Is("..."):
				def.Params = append(def.Params, "__VA_ARGS__")
				def.Variadic = true
			case t.Is(","):
			default:
				p.errorf(t, "malformed macro parameter list")
			}
			i++
		}
		if i < len(rest) {
			i++ // consume ")"
		}
		rest = rest[i:]
	}
	def.Body = append([]token.Token(nil), rest...)
	p.stats.MacroDefinitions++
	if p.condDepth > 0 {
		p.stats.DefsInConditional++
	}
	before := p.macros.Redefinitions
	p.macros.Define(name.Text, def, c)
	if p.macros.Redefinitions > before {
		p.stats.Redefinitions++
	}
}

// handleInclude resolves and processes a #include or #include_next
// directive under c.
func (p *Preprocessor) handleInclude(args []token.Token, c cond.Cond, fromFile string, at token.Token, next bool) []Segment {
	if p.budget.Tripped() {
		return nil
	}
	if p.includeDepth >= p.maxInclude {
		// The error depends on absolute nesting depth, which the cache
		// fingerprint deliberately does not capture: poison any recordings.
		p.poisonRecorders()
		p.errorf(at, "include depth limit exceeded")
		return nil
	}
	// Direct forms need no expansion.
	if name, angled, ok := includeSpec(args); ok {
		return p.spliceInclude(name, angled || next, c, fromFile, at, next)
	}
	// Computed include: expand, hoist, resolve per alternative.
	p.stats.ComputedIncludes++
	expanded := p.expandSegments(TokensOf(args), c, 0)
	alts, ok := p.hoistGuard(c, expanded)
	if !ok {
		p.stats.HoistOverflows++
		p.errorf(at, "computed include too complex")
		return nil
	}
	if len(alts) > 1 {
		p.stats.HoistedIncludes++
	}
	var branches []Branch
	for _, alt := range alts {
		name, angled, ok := includeSpec(alt.Toks)
		if !ok {
			p.errorf(at, "malformed include after expansion")
			continue
		}
		segs := p.spliceInclude(name, angled || next, alt.Cond, fromFile, at, next)
		if len(segs) > 0 {
			branches = append(branches, Branch{Cond: alt.Cond, Segs: segs})
		}
	}
	switch len(branches) {
	case 0:
		return nil
	case 1:
		if p.space.Equal(branches[0].Cond, c) {
			return branches[0].Segs
		}
	}
	return []Segment{CondSeg(&Conditional{Branches: branches})}
}

// includeSpec extracts the include file name: "name" or <name>.
func includeSpec(args []token.Token) (name string, angled bool, ok bool) {
	if len(args) == 1 && args[0].Kind == token.String {
		s := args[0].Text
		if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
			return s[1 : len(s)-1], false, true
		}
		return "", false, false
	}
	if len(args) >= 3 && args[0].Is("<") && args[len(args)-1].Is(">") {
		var b strings.Builder
		for _, t := range args[1 : len(args)-1] {
			b.WriteString(t.Text)
		}
		return b.String(), true, true
	}
	return "", false, false
}

// spliceInclude processes one resolved include target under c.
func (p *Preprocessor) spliceInclude(name string, angled bool, c cond.Cond, fromFile string, at token.Token, next bool) []Segment {
	rfs := p.resolveFS()
	var path string
	if next {
		path = resolveIncludeNext(rfs, p.includePaths, fromFile, name)
	} else {
		path = resolveInclude(rfs, p.includePaths, fromFile, name, angled)
	}
	if path == "" {
		p.errorf(at, "include not found: %s", name)
		return nil
	}
	p.stats.Includes++
	// Guard-based skip: when the file's guard macro is already defined
	// everywhere under c, reprocessing would contribute nothing.
	if guard, ok := p.readGuardOf(path); ok && guard != "" {
		di := p.macros.DefinedInfo(guard)
		if p.space.Implies(c, di.Defined) {
			p.stats.GuardSkips++
			return nil
		}
	}
	p.bumpTimesInc(path)
	p.includeDepth++
	p.noteIncludeDepth()
	segs, err := p.processFileCached(path, c)
	p.includeDepth--
	if err != nil {
		p.errorf(at, "include %s: %v", name, err)
		return nil
	}
	return segs
}

// hoistGuard wraps Hoist (Algorithm 1) with the budget's hoist axis: the
// static hoistLimit is tightened by the budget's configured ceiling, the
// product size is recorded as a high-water mark, and an overflow that only
// the budget's tighter ceiling could have caused trips the budget so the
// structured diagnostic names the axis.
func (p *Preprocessor) hoistGuard(c cond.Cond, segs []Segment) ([]Alternative, bool) {
	limit := hoistLimit
	blim := p.budget.Limits().Hoist
	if blim > 0 && blim < int64(limit) {
		limit = int(blim)
	}
	alts, ok := Hoist(p.space, c, segs, limit)
	if !ok {
		if blim > 0 && blim <= int64(hoistLimit) {
			p.budget.ForceTrip("preprocessor", guard.AxisHoist)
			p.budget.Annotate(p.space.String(c), "")
		}
		return nil, false
	}
	p.budget.Observe("preprocessor", guard.AxisHoist, int64(len(alts)))
	return alts, true
}

// evalConditionalDirective converts #if/#ifdef/#ifndef arguments into a
// presence condition relative to base (or a concrete constant in
// single-configuration mode).
func (p *Preprocessor) evalConditionalDirective(kind string, args []token.Token, base cond.Cond, at token.Token) cond.Cond {
	switch kind {
	case "ifdef", "ifndef":
		if len(args) != 1 || args[0].Kind != token.Identifier {
			p.errorf(at, "malformed #%s", kind)
			return p.space.False()
		}
		name := args[0].Text
		var c cond.Cond
		if p.singleConfig {
			if p.macros.IsEverDefined(name, p.space.True()) {
				c = p.space.True()
			} else {
				c = p.space.False()
			}
		} else {
			ctx := &cexpr.Context{Space: p.space, DefinedLookup: p.macros.DefinedInfo}
			c, _ = ctx.Convert(&cexpr.Expr{Kind: cexpr.KindDefined, Name: name})
		}
		if kind == "ifndef" {
			c = p.space.Not(c)
		}
		return c
	}
	return p.evalIfExpr(args, base, at)
}

// evalIfExpr evaluates a #if/#elif expression: it expands macros outside
// defined(), hoists any implicit conditionals introduced by multiply-defined
// macros around the expression, folds constants, and converts each hoisted
// alternative to a presence condition (paper §3.2).
func (p *Preprocessor) evalIfExpr(args []token.Token, base cond.Cond, at token.Token) cond.Cond {
	faultinject.At(faultinject.PointCondExpr, p.stats.File, p.budget)
	segs := p.expandGuardingDefined(args, base)
	if p.singleConfig {
		// Concrete evaluation; expansion produced plain tokens.
		toks := make([]token.Token, 0, len(segs))
		for _, s := range segs {
			if s.IsToken() {
				toks = append(toks, *s.Tok)
			}
		}
		e, err := cexpr.Parse(toks)
		if err != nil {
			p.errorf(at, "bad conditional expression: %v", err)
			return p.space.False()
		}
		v, err := cexpr.Eval(e, cexpr.EvalContext{
			Defined: func(name string) bool { return p.macros.IsEverDefined(name, p.space.True()) },
		})
		if err != nil {
			p.errorf(at, "bad conditional expression: %v", err)
			return p.space.False()
		}
		if v != 0 {
			return p.space.True()
		}
		return p.space.False()
	}
	alts, ok := p.hoistGuard(base, segs)
	if !ok {
		p.stats.HoistOverflows++
		p.errorf(at, "conditional expression too complex")
		return p.space.False()
	}
	ctx := &cexpr.Context{Space: p.space, DefinedLookup: p.macros.DefinedInfo}
	result := p.space.False()
	for _, alt := range alts {
		e, err := cexpr.Parse(alt.Toks)
		if err != nil {
			p.errorf(at, "bad conditional expression: %v", err)
			continue
		}
		c, info := ctx.Convert(e)
		if info.NonBoolean {
			p.stats.NonBooleanExprs++
		}
		result = p.space.Or(result, p.space.And(alt.Cond, c))
	}
	return result
}

// expandGuardingDefined macro-expands the expression tokens while protecting
// the operands of defined() from expansion.
func (p *Preprocessor) expandGuardingDefined(args []token.Token, c cond.Cond) []Segment {
	var out []Segment
	var run []token.Token
	flushRun := func() {
		if len(run) > 0 {
			out = append(out, p.expandSegments(TokensOf(run), c, 0)...)
			run = nil
		}
	}
	for i := 0; i < len(args); i++ {
		t := args[i]
		if t.IsIdent("defined") {
			flushRun()
			out = append(out, TokSeg(t))
			switch {
			case i+3 < len(args) && args[i+1].Is("(") && args[i+2].Kind == token.Identifier && args[i+3].Is(")"):
				// defined ( NAME )
				out = append(out, TokSeg(args[i+1]), TokSeg(args[i+2]), TokSeg(args[i+3]))
				i += 3
			case i+1 < len(args) && args[i+1].Kind == token.Identifier:
				// defined NAME
				out = append(out, TokSeg(args[i+1]))
				i++
			}
			continue
		}
		run = append(run, t)
	}
	flushRun()
	return out
}
