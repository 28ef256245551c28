// Package harness drives the paper's evaluation (§6) over the synthetic
// corpus and renders each table and figure in the paper's format. It is
// shared by cmd/cstats, cmd/fmlrbench, and the repository's root
// benchmarks. Its RunUnits is also the one batch runner behind superd's
// /v1/lint, /v1/parse and /v1/link and clint's and superc's in-process
// runs.
//
// # Concurrent design
//
// Compilation units are independent — each gets a fresh core.Tool with its
// own presence-condition space and macro table — so RunUnits fans them out
// over a bounded worker pool (RunConfig.Jobs wide, GOMAXPROCS by default).
// Results land in a slice indexed by the unit's position, so output
// ordering is deterministic regardless of scheduling, and per-unit timing
// is measured inside the worker exactly as in the sequential harness. A
// unit that panics or trips the subparser kill switch degrades to a
// recorded failure in its UnitResult instead of taking down the batch, and
// a cancelled context marks the not-yet-processed remainder as skipped at
// unit granularity. Callers add their own per-unit work through RunUnits'
// callback, which runs behind the same panic barrier.
//
// # Resource governance
//
// Every unit runs under a fresh guard.Budget derived from the run's context
// and RunConfig.Budget limits, so a cancelled context also abandons
// in-flight units (the stages poll the budget at their loop heads), and
// pathological units degrade to a partial AST with a structured
// guard.Diagnostic instead of hanging. With RunConfig.Quarantine, a unit
// whose first attempt panics or trips its budget is retried once; a second
// failure quarantines the unit, which Metrics reports by path.
//
// Once the pool drains, RunMetered folds every unit through the per-unit
// instruments declared once in UnitGroups (metrics.go) and returns them,
// with the run's cache, store and link totals, as a Metrics snapshot
// alongside the results.
package harness

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/cgrammar"
	"repro/internal/cond"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/fmlr"
	"repro/internal/guard"
	"repro/internal/guard/faultinject"
	"repro/internal/hcache"
	"repro/internal/link"
	"repro/internal/preprocessor"
	"repro/internal/stats"
	"repro/internal/store"
)

// IncludePaths are the corpus's include directories.
var IncludePaths = []string{"include", "include/gen", "include/linux"}

// sharedHeaderCache is the process-wide default header cache, created on
// first cached run so that repeated runs (benchmark arms, Figure sweeps)
// keep sharing header work.
var (
	headerCacheOnce   sync.Once
	sharedHeaderCache *hcache.Cache
)

// headerCache resolves the cache a run should use: an explicit override, the
// process-wide default, or nil when disabled (including single-configuration
// mode, which the preprocessor would ignore the cache for anyway).
func (cfg RunConfig) headerCache() *hcache.Cache {
	if cfg.NoHeaderCache || cfg.Single {
		return nil
	}
	if cfg.HeaderCache != nil {
		return cfg.HeaderCache
	}
	headerCacheOnce.Do(func() { sharedHeaderCache = hcache.New(hcache.Options{}) })
	return sharedHeaderCache
}

// RunConfig selects one experimental arm.
type RunConfig struct {
	Mode   cond.Mode
	Parser fmlr.Options
	Single bool
	// Defines are -D style macro definitions seeding every unit's macro
	// table, in every mode; in single-configuration mode they also decide
	// the conditionals.
	Defines map[string]string
	// Jobs bounds the worker pool: 0 means GOMAXPROCS, 1 is fully
	// sequential.
	Jobs int
	// ParseWorkers bounds intra-unit parallelism: with more than one worker
	// the parser splits each unit at top-level declaration boundaries and
	// parses the regions concurrently, with output proven byte-identical to
	// the sequential parse. 0 and 1 parse sequentially. It composes with
	// Jobs: each of the Jobs units in flight may fan out up to ParseWorkers
	// region parses.
	ParseWorkers int
	// IncludePaths are the #include search directories. RunUnits uses them
	// as given; RunMetered fills in the corpus's IncludePaths when empty.
	IncludePaths []string
	// HeaderCache overrides the shared cross-unit header cache for this run.
	// nil uses the process-wide default cache unless NoHeaderCache is set.
	// When the cache is backed by an artifact store (store.HeaderBacking),
	// Metrics reports that store's counters.
	HeaderCache *hcache.Cache
	// NoHeaderCache disables header caching for this run.
	NoHeaderCache bool
	// Budget sets per-unit resource ceilings (internal/guard). All-zero
	// limits still attach a budget so that context cancellation reaches
	// in-flight units.
	Budget guard.Limits
	// Quarantine retries a failed or budget-tripped unit once and, on a
	// second failure, marks it quarantined instead of retrying forever.
	Quarantine bool
	// Analyzers, when non-empty, runs the variability-aware analysis passes
	// over every unit after parsing (internal/analysis); each unit's
	// diagnostics land in its UnitResult.Analysis.
	Analyzers []*analysis.Analyzer
	// Link extracts per-unit conditional link facts after parsing (each
	// unit's facts land in UnitResult.LinkFacts). RunMetered also joins
	// them corpus-wide once every unit finishes; the findings land in
	// Metrics.LinkResult and the run's link counters in Metrics.
	Link bool
}

// UnitResult is one compilation unit's measurements.
type UnitResult struct {
	File      string
	Bytes     int
	Tokens    int
	Pre       preprocessor.UnitStats
	Parse     fmlr.Stats
	Killed    bool
	ParseFail bool
	Err       string // non-parse failure: panic recovered or run cancelled
	Stack     string // goroutine stack captured when Err records a panic
	// Budget is the structured diagnostic when the unit tripped its
	// resource budget and degraded to a partial AST (nil otherwise).
	Budget      *guard.Diagnostic
	Retried     bool // result comes from the second (retry) attempt
	Quarantined bool // both attempts failed; unit is quarantined
	LexTime     time.Duration
	PreTime     time.Duration // preprocessing excluding lexing
	ParseTime   time.Duration
	TotalTime   time.Duration
	ChoiceNodes int
	BDDNodes    int // presence-condition nodes allocated for this unit (BDD mode)

	// Hot-path cache effectiveness for this unit (BDD mode only for the
	// op-cache numbers; cond fast-paths cover both modes).
	BDDOpHits      int64
	BDDOpMisses    int64
	BDDOpEvictions int64
	CondOps        int64
	CondFastPaths  int64

	// Analysis is the unit's variability-aware analysis result (nil when
	// RunConfig.Analyzers is empty or the unit failed before analysis).
	Analysis *analysis.Result

	// LinkFacts is the unit's conditional link facts (nil unless
	// RunConfig.Link is set and the unit parsed).
	LinkFacts *link.Facts
}

// Run processes every compilation unit of the corpus under cfg.
func Run(c *corpus.Corpus, cfg RunConfig) []UnitResult {
	results, _ := RunMetered(context.Background(), c, cfg)
	return results
}

// RunMetered is Run with cancellation and a metrics snapshot: RunUnits over
// the corpus (whose include directories fill in when cfg names none), each
// parsed unit's choice nodes counted, then the fold, the corpus-wide link
// join and the snapshot.
func RunMetered(ctx context.Context, c *corpus.Corpus, cfg RunConfig) ([]UnitResult, Metrics) {
	if len(cfg.IncludePaths) == 0 {
		cfg.IncludePaths = IncludePaths
	}
	hc := cfg.headerCache()
	var st *store.Store
	if hc != nil {
		if b, ok := hc.Backing().(*store.HeaderBacking); ok {
			st = b.S
		}
	}
	before := snapshot(runTotals{}, make([]int64, len(UnitFields)), link.Stats{}, hc, st)
	start := time.Now()
	var inFlight stats.HighWater
	out := runUnits(ctx, c.FS, c.CFiles, cfg, &inFlight, func(_ int, _ *core.Tool, res *core.Result, r *UnitResult) {
		if res.AST != nil {
			r.ChoiceNodes = res.AST.CountChoices()
		}
	})

	run := runTotals{jobs: int64(Workers(cfg.Jobs, len(c.CFiles))), maxInFlight: inFlight.Max(), wallNS: int64(time.Since(start))}
	run.tableCacheHits, run.tableCacheMisses = cgrammar.TableCacheStats()
	var m Metrics
	units := stats.NewCounterSet(len(UnitFields))
	for i := range out {
		UnitFields.Fold(units, &out[i])
		if out[i].Quarantined {
			m.Quarantined = append(m.Quarantined, out[i].File)
		}
	}
	sort.Strings(m.Quarantined)
	var linkStats link.Stats
	if cfg.Link {
		// The join runs after the pool drains, over facts in corpus order —
		// worker scheduling cannot reach it, so the findings are a pure
		// function of the inputs at any Jobs/ParseWorkers combination.
		var facts []*link.Facts
		for i := range out {
			if out[i].LinkFacts != nil {
				facts = append(facts, out[i].LinkFacts)
			}
		}
		var canon *hcache.Canon
		if hc != nil {
			canon = hc.Canon()
		}
		m.LinkResult = link.Link(facts, canon)
		linkStats = m.LinkResult.Stats
	}
	m.Snapshot = snapshot(run, units.Snapshot(), linkStats, hc, st).Sub(before)
	return out, m
}

// RunUnits is the one batch runner: it processes files, read through fs,
// on a pool of cfg.Jobs workers and returns one result per file, in file
// order. Every unit gets its own core.Tool and guard.Budget on ctx, so
// units share no mutable state and cancelling ctx abandons in-flight units;
// once ctx is done, units not yet started are recorded as failed with Err
// "run cancelled". A unit that panics is recorded as failed with the panic
// text and stack instead of taking down the process, and with
// cfg.Quarantine a panicked or budget-tripped unit is retried once.
//
// Each unit that preprocesses is parsed, then runs cfg.Analyzers into
// UnitResult.Analysis and, with cfg.Link and an AST, extracts its link
// facts into UnitResult.LinkFacts (RunUnits does not join them). each, when
// non-nil, then sees the unit inside the panic barrier while its tool is
// still live; the unit's budget outcome is recorded after it returns.
// RunUnits uses cfg.IncludePaths as given: the corpus directories are
// RunMetered's default, not its own.
func RunUnits(ctx context.Context, fs preprocessor.FileSystem, files []string, cfg RunConfig, each func(i int, tool *core.Tool, res *core.Result, r *UnitResult)) []UnitResult {
	return runUnits(ctx, fs, files, cfg, new(stats.HighWater), each)
}

func runUnits(ctx context.Context, fs preprocessor.FileSystem, files []string, cfg RunConfig, inFlight *stats.HighWater, each func(int, *core.Tool, *core.Result, *UnitResult)) []UnitResult {
	u := unitRun{ctx: ctx, fs: fs, cfg: cfg, parser: cfg.Parser, hc: cfg.headerCache(), each: each}
	if u.parser.ParseWorkers == 0 {
		u.parser.ParseWorkers = cfg.ParseWorkers
	}
	out := make([]UnitResult, len(files))
	Parallel(cfg.Jobs, len(files), func(i int) {
		if ctx.Err() != nil {
			out[i] = UnitResult{File: files[i], ParseFail: true, Err: "run cancelled"}
			return
		}
		inFlight.Enter()
		defer inFlight.Exit()
		out[i] = u.runSafe(i, files[i])
		if cfg.Quarantine && out[i].unhealthy() && ctx.Err() == nil {
			out[i] = u.runSafe(i, files[i])
			out[i].Retried = true
			out[i].Quarantined = out[i].unhealthy()
		}
	})
	return out
}

// Workers resolves a -j value for a batch of n units: zero or negative
// means GOMAXPROCS, and the pool is never wider than the batch nor
// narrower than one worker.
func Workers(j, n int) int {
	if j <= 0 {
		j = runtime.GOMAXPROCS(0)
	}
	return max(1, min(j, n))
}

// Parallel calls fn(i) for every i in [0, n) on Workers(jobs, n)
// goroutines and returns once every call has returned. It is RunUnits'
// pool, and the one other batch shares: superd's /v1/link store lookups
// (each miss then runs as a RunUnits batch of one).
func Parallel(jobs, n int, fn func(i int)) {
	work := make(chan int)
	var wg sync.WaitGroup
	for w := Workers(jobs, n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
}

// testHookUnitStart, when set, runs at the top of every unit (inside the
// panic barrier); tests use it to inject worker panics.
var testHookUnitStart func(file string)

// unhealthy reports whether the unit attempt is worth retrying under
// quarantine semantics: it panicked (Err) or tripped its resource budget.
// Plain parse failures (grammar rejects) are deterministic results, not
// faults, and are never retried.
func (r *UnitResult) unhealthy() bool {
	return r.Err != "" || r.Budget != nil
}

// unitRun is what every unit of one RunUnits call shares.
type unitRun struct {
	ctx    context.Context
	fs     preprocessor.FileSystem
	cfg    RunConfig
	parser fmlr.Options
	hc     *hcache.Cache
	each   func(int, *core.Tool, *core.Result, *UnitResult)
}

// runSafe is run behind a panic barrier: a poisoned unit (lexer panic,
// grammar bug, injected fault) is recorded as that unit's failure — with
// the unit path and goroutine stack — instead of crashing the whole batch.
func (u *unitRun) runSafe(i int, cf string) (res UnitResult) {
	defer func() {
		if p := recover(); p != nil {
			res = UnitResult{
				File:      cf,
				ParseFail: true,
				Err:       fmt.Sprintf("panic processing %s: %v", cf, p),
				Stack:     string(debug.Stack()),
			}
		}
	}()
	return u.run(i, cf)
}

func (u *unitRun) run(i int, cf string) UnitResult {
	if testHookUnitStart != nil {
		testHookUnitStart(cf)
	}
	// Every unit gets its own budget even when all limits are zero: the
	// budget carries the run context into the stage loop heads, so
	// cancelling the run abandons in-flight units, not just queued ones.
	budget := guard.New(u.ctx, u.cfg.Budget)
	faultinject.At(faultinject.PointHarnessUnit, cf, budget)
	parser := u.parser
	parser.Budget = budget
	// Each unit gets a fresh tool so that condition-space growth (BDD node
	// tables, SAT statistics) is attributed per unit, as in the paper's
	// per-compilation-unit latency measurements — and so that units share
	// no mutable state and can run on any worker.
	tool := core.New(core.Config{
		FS:           u.fs,
		IncludePaths: u.cfg.IncludePaths,
		CondMode:     u.cfg.Mode,
		Parser:       &parser,
		SingleConfig: u.cfg.Single,
		Defines:      u.cfg.Defines,
		HeaderCache:  u.hc,
		Budget:       budget,
	})
	res, parsed := measure(tool, cf)
	if parsed != nil {
		// Analysis runs under the same per-unit budget: a trip degrades to
		// the passes already completed, never hangs the unit.
		au := &analysis.Unit{File: cf, Space: tool.Space(), AST: parsed.AST, PP: parsed.Unit, Budget: budget}
		if len(u.cfg.Analyzers) > 0 {
			res.Analysis = analysis.Run(au, u.cfg.Analyzers)
		}
		if u.cfg.Link && parsed.AST != nil {
			res.LinkFacts = analysis.ExtractLinkFacts(au)
		}
		if u.each != nil {
			u.each(i, tool, parsed, &res)
		}
	}
	res.Budget = budget.Trip()
	return res
}

// measure preprocesses and parses file with tool, timing each stage, and
// returns the unit's measurements with the parse result — nil when
// preprocessing failed, which the UnitResult then records.
func measure(tool *core.Tool, file string) (UnitResult, *core.Result) {
	res := UnitResult{File: file}
	start := time.Now()
	unit, err := tool.Preprocess(file)
	preTotal := time.Since(start)
	if err != nil {
		res.ParseFail = true
		res.Err = err.Error()
		return res, nil
	}
	parseStart := time.Now()
	parsed := tool.Parse(unit)
	res.ParseTime = time.Since(parseStart)
	res.Bytes = unit.Stats.Bytes
	res.Tokens = unit.Stats.Tokens
	res.Pre = unit.Stats
	res.Parse = parsed.Parse.Stats
	res.Killed = parsed.Parse.Killed
	res.ParseFail = parsed.AST == nil
	res.LexTime = unit.Stats.LexTime
	res.PreTime = preTotal - unit.Stats.LexTime
	res.TotalTime = preTotal + res.ParseTime
	if bf := tool.Space().BDD(); bf != nil {
		res.BDDNodes = bf.NumNodes()
		cs := bf.Stats()
		res.BDDOpHits = cs.OpHits
		res.BDDOpMisses = cs.OpMisses
		res.BDDOpEvictions = cs.OpEvictions
	}
	hot := tool.Space().Hot
	res.CondOps = hot.Ops
	res.CondFastPaths = hot.FastPaths
	return res, parsed
}

// Table2a renders the developer's view of preprocessor usage (paper
// Table 2a): directive counts against lines of code, split between C files
// and headers.
func Table2a(c *corpus.Corpus) string {
	t := c.DeveloperView()
	var b strings.Builder
	pct := func(part, whole int) string {
		if whole == 0 {
			return "0%"
		}
		return fmt.Sprintf("%.0f%%", 100*float64(part)/float64(whole))
	}
	fmt.Fprintf(&b, "Table 2a: developer's view (synthetic corpus)\n")
	fmt.Fprintf(&b, "%-28s %9s %9s %9s\n", "", "Total", "C Files", "Headers")
	fmt.Fprintf(&b, "%-28s %9d %9s %9s\n", "LoC", t.LoC, pct(t.LoC-t.LoCHeaders, t.LoC), pct(t.LoCHeaders, t.LoC))
	fmt.Fprintf(&b, "%-28s %9d %9s %9s\n", "All Directives", t.Directives, pct(t.Directives-t.DirHeaders, t.Directives), pct(t.DirHeaders, t.Directives))
	fmt.Fprintf(&b, "%-28s %9d %9s %9s\n", "#define", t.Defines, pct(t.Defines-t.DefinesHeaders, t.Defines), pct(t.DefinesHeaders, t.Defines))
	fmt.Fprintf(&b, "%-28s %9d %9s %9s\n", "#if, #ifdef, #ifndef", t.Conds, pct(t.Conds-t.CondsHeaders, t.Conds), pct(t.CondsHeaders, t.Conds))
	fmt.Fprintf(&b, "%-28s %9d %9s %9s\n", "#include", t.Includes, pct(t.Includes-t.IncludesHeaders, t.Includes), pct(t.IncludesHeaders, t.Includes))
	return b.String()
}

// Table2b renders the most frequently included headers (paper Table 2b).
func Table2b(c *corpus.Corpus) string {
	counts := c.InclusionCounts()
	type hc struct {
		name string
		n    int
	}
	var list []hc
	for h, n := range counts {
		list = append(list, hc{h, n})
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].n != list[j].n {
			return list[i].n > list[j].n
		}
		return list[i].name < list[j].name
	})
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2b: most frequently included headers\n")
	fmt.Fprintf(&b, "%-36s %s\n", "Header Name", "C Files That Include Header")
	for i, e := range list {
		if i >= 5 {
			break
		}
		fmt.Fprintf(&b, "%-36s %d (%.0f%%)\n", e.name, e.n, 100*float64(e.n)/float64(len(c.CFiles)))
	}
	return b.String()
}

// Table3 renders the tool's view of preprocessor usage (paper Table 3):
// per-construct percentiles (50th · 90th · 100th) across compilation units.
func Table3(results []UnitResult) string {
	row := func(get func(u *preprocessor.UnitStats) int) *stats.Sample {
		s := &stats.Sample{}
		for i := range results {
			s.AddInt(get(&results[i].Pre))
		}
		return s
	}
	type line struct {
		label string
		s     *stats.Sample
	}
	lines := []line{
		{"Macro Definitions", row(func(u *preprocessor.UnitStats) int { return u.MacroDefinitions })},
		{"  Contained in conditionals", row(func(u *preprocessor.UnitStats) int { return u.DefsInConditional })},
		{"  Redefinitions", row(func(u *preprocessor.UnitStats) int { return u.Redefinitions })},
		{"Macro Invocations", row(func(u *preprocessor.UnitStats) int { return u.Invocations })},
		{"  Trimmed", row(func(u *preprocessor.UnitStats) int { return u.TrimmedInvocations })},
		{"  Hoisted", row(func(u *preprocessor.UnitStats) int { return u.HoistedInvocations })},
		{"  Nested invocations", row(func(u *preprocessor.UnitStats) int { return u.NestedInvocations })},
		{"  Built-in macros", row(func(u *preprocessor.UnitStats) int { return u.BuiltinUses })},
		{"Token-Pasting", row(func(u *preprocessor.UnitStats) int { return u.TokenPastings })},
		{"  Hoisted", row(func(u *preprocessor.UnitStats) int { return u.HoistedPastings })},
		{"Stringification", row(func(u *preprocessor.UnitStats) int { return u.Stringifications })},
		{"File Includes", row(func(u *preprocessor.UnitStats) int { return u.Includes })},
		{"  Hoisted", row(func(u *preprocessor.UnitStats) int { return u.HoistedIncludes })},
		{"  Computed includes", row(func(u *preprocessor.UnitStats) int { return u.ComputedIncludes })},
		{"  Reincluded headers", row(func(u *preprocessor.UnitStats) int { return u.ReincludedHeaders })},
		{"Static Conditionals", row(func(u *preprocessor.UnitStats) int { return u.Conditionals })},
		{"  Max. depth", row(func(u *preprocessor.UnitStats) int { return u.MaxCondDepth })},
		{"  With non-boolean expressions", row(func(u *preprocessor.UnitStats) int { return u.NonBooleanExprs })},
		{"Error Directives", row(func(u *preprocessor.UnitStats) int { return u.ErrorDirectives })},
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3: tool's view — percentiles across compilation units (50th · 90th · 100th)\n")
	for _, l := range lines {
		fmt.Fprintf(&b, "%-34s %s\n", l.label, l.s.Table3Row())
	}
	// Parser-side rows of Table 3.
	decls := &stats.Sample{}
	typedefForks := &stats.Sample{}
	for i := range results {
		decls.AddInt(results[i].ChoiceNodes)
		typedefForks.AddInt(results[i].Parse.TypedefForks)
	}
	fmt.Fprintf(&b, "%-34s %s\n", "C Constructs w/ choice nodes", decls.Table3Row())
	fmt.Fprintf(&b, "%-34s %s\n", "Ambiguously defined names", typedefForks.Table3Row())
	return b.String()
}

// Level is one Figure 8 optimization level.
type Level struct {
	Name string
	Opts fmlr.Options
}

// Levels are Figure 8a's rows, in the paper's order.
var Levels = []Level{
	{"Shared, Lazy, & Early", fmlr.OptAll},
	{"Shared & Lazy", fmlr.OptSharedLazy},
	{"Shared", fmlr.OptShared},
	{"Lazy", fmlr.OptLazy},
	{"Follow-Set Only", fmlr.OptFollowOnly},
	{"MAPR & Largest First", fmlr.OptMAPRLargest},
	{"MAPR", fmlr.OptMAPR},
}

// withLevel is base with one Figure 8 optimization level and kill switch.
func withLevel(base RunConfig, parser fmlr.Options, killSwitch int) RunConfig {
	base.Parser = parser
	base.Parser.KillSwitch = killSwitch
	return base
}

// withTool is base as one Figure 9 tool: a condition mode and parser level.
func withTool(base RunConfig, mode cond.Mode, parser fmlr.Options) RunConfig {
	base.Mode, base.Parser = mode, parser
	return base
}

// Figure8Row is one optimization level's aggregate subparser statistics.
type Figure8Row struct {
	Name        string
	P99         int
	Max         int
	KilledUnits int
	TotalUnits  int
}

// Figure8 measures subparser counts per main-loop iteration for every
// optimization level (paper Figure 8a). Each level runs under base with
// only the parser level and kill switch overridden.
func Figure8(c *corpus.Corpus, base RunConfig, killSwitch int) []Figure8Row {
	var rows []Figure8Row
	for _, lv := range Levels {
		results := Run(c, withLevel(base, lv.Opts, killSwitch))
		agg, killed := subparserHist(results)
		rows = append(rows, Figure8Row{
			Name:        lv.Name,
			P99:         agg.Percentile(0.99),
			Max:         agg.Percentile(1),
			KilledUnits: killed,
			TotalUnits:  len(results),
		})
	}
	return rows
}

// subparserHist pools the per-iteration subparser counts of the units that
// finished under the kill switch, and counts the killed ones.
func subparserHist(results []UnitResult) (stats.Hist, int) {
	agg, killed := stats.Hist{}, 0
	for i := range results {
		if results[i].Killed {
			killed++
			continue
		}
		for v, n := range results[i].Parse.SubparserHist {
			agg[v] += n
		}
	}
	return agg, killed
}

// RenderFigure8a prints Figure 8a's table.
func RenderFigure8a(rows []Figure8Row, killSwitch int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8a: subparser counts per FMLR loop iteration\n")
	fmt.Fprintf(&b, "%-24s %8s %8s\n", "Optimization Level", "99th %", "Max.")
	for _, r := range rows {
		if r.KilledUnits > 0 {
			fmt.Fprintf(&b, "%-24s  >%d on %d%% of comp. units\n",
				r.Name, killSwitch, 100*r.KilledUnits/r.TotalUnits)
			continue
		}
		fmt.Fprintf(&b, "%-24s %8d %8d\n", r.Name, r.P99, r.Max)
	}
	return b.String()
}

// Figure8b returns, per level, the cumulative distribution of subparser
// counts (paper Figure 8b). The MAPR rows are omitted: their distributions
// are dominated by kill-switch aborts (see Figure 8a), and Figure 8b's
// point in the paper is the separation between the FMLR levels.
func Figure8b(c *corpus.Corpus, base RunConfig, killSwitch, points int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8b: cumulative distribution of subparser counts per iteration\n")
	for _, lv := range Levels {
		if lv.Opts.NoChoiceMerge {
			continue // MAPR baselines: see Figure 8a
		}
		results := Run(c, withLevel(base, lv.Opts, killSwitch))
		agg, killed := subparserHist(results)
		if killed == len(results) {
			fmt.Fprintf(&b, "%s: all units exceeded the kill switch\n", lv.Name)
			continue
		}
		fmt.Fprintf(&b, "%s", stats.RenderCDF(lv.Name, agg, points))
	}
	return b.String()
}

// Figure9 compares per-unit latency between SuperC (BDD conditions, all
// optimizations) and the TypeChef baseline (SAT conditions, follow-set
// only), as in paper Figure 9.
type Figure9Result struct {
	SuperC   *stats.Sample // seconds per unit
	TypeChef *stats.Sample
}

// Figure9 runs both tools over the corpus under base, overriding only the
// condition mode and parser level.
func Figure9(c *corpus.Corpus, base RunConfig) Figure9Result {
	superc := Run(c, withTool(base, cond.ModeBDD, fmlr.OptAll))
	chef := Run(c, withTool(base, cond.ModeSAT, fmlr.OptFollowOnly))
	r := Figure9Result{SuperC: &stats.Sample{}, TypeChef: &stats.Sample{}}
	for i := range superc {
		r.SuperC.AddDuration(superc[i].TotalTime)
	}
	for i := range chef {
		r.TypeChef.AddDuration(chef[i].TotalTime)
	}
	return r
}

// RenderFigure9 prints the latency comparison in the paper's style.
func RenderFigure9(r Figure9Result, points int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 9: latency per compilation unit\n")
	fmt.Fprintf(&b, "%-10s %10s %10s %10s %12s %12s\n", "tool", "p50", "p80", "p99", "max", "total")
	row := func(name string, s *stats.Sample) {
		fmt.Fprintf(&b, "%-10s %9.3fms %9.3fms %9.3fms %10.3fms %10.3fms\n", name,
			1e3*s.Percentile(0.5), 1e3*s.Percentile(0.8), 1e3*s.Percentile(0.99),
			1e3*s.Max(), 1e3*s.Sum())
	}
	row("SuperC", r.SuperC)
	row("TypeChef", r.TypeChef)
	if r.SuperC.Percentile(0.5) > 0 {
		fmt.Fprintf(&b, "speedup: p50 %.1fx, p80 %.1fx, max %.1fx\n",
			r.TypeChef.Percentile(0.5)/r.SuperC.Percentile(0.5),
			r.TypeChef.Percentile(0.8)/r.SuperC.Percentile(0.8),
			r.TypeChef.Max()/r.SuperC.Max())
	}
	b.WriteString(stats.RenderCDF("SuperC latency CDF (s)", r.SuperC, points))
	b.WriteString(stats.RenderCDF("TypeChef latency CDF (s)", r.TypeChef, points))
	return b.String()
}

// Figure10 renders the SuperC latency breakdown by stage against
// compilation-unit size (paper Figure 10).
func Figure10(c *corpus.Corpus, base RunConfig) string {
	results := Run(c, withTool(base, cond.ModeBDD, fmlr.OptAll))
	sort.Slice(results, func(i, j int) bool { return results[i].Bytes < results[j].Bytes })
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 10: SuperC latency breakdown per compilation unit (sorted by size)\n")
	fmt.Fprintf(&b, "%-20s %10s %10s %10s %10s %10s\n", "unit", "bytes", "lex(ms)", "preproc(ms)", "parse(ms)", "total(ms)")
	for i := range results {
		r := &results[i]
		fmt.Fprintf(&b, "%-20s %10d %10.3f %10.3f %10.3f %10.3f\n",
			r.File, r.Bytes,
			r.LexTime.Seconds()*1e3, r.PreTime.Seconds()*1e3,
			r.ParseTime.Seconds()*1e3, r.TotalTime.Seconds()*1e3)
	}
	return b.String()
}

// GccBaseline measures single-configuration processing (the paper's gcc
// comparison: one branch per conditional, concrete macro table) under base.
func GccBaseline(c *corpus.Corpus, base RunConfig, defines map[string]string) (*stats.Sample, []UnitResult) {
	cfg := withTool(base, cond.ModeBDD, fmlr.OptAll)
	cfg.Single, cfg.Defines = true, defines
	results := Run(c, cfg)
	s := &stats.Sample{}
	for i := range results {
		s.AddDuration(results[i].TotalTime)
	}
	return s, results
}

// RenderGcc prints the single-configuration comparison under base.
func RenderGcc(c *corpus.Corpus, base RunConfig) string {
	single, _ := GccBaseline(c, base, map[string]string{"CONFIG_64BIT": "1", "CONFIG_KERNEL_MODE": "1"})
	full := Run(c, withTool(base, cond.ModeBDD, fmlr.OptAll))
	fullS := &stats.Sample{}
	for i := range full {
		fullS.AddDuration(full[i].TotalTime)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "gcc-like single-configuration baseline vs configuration-preserving SuperC\n")
	fmt.Fprintf(&b, "%-22s %10s %10s %10s\n", "", "p50", "p90", "max")
	fmt.Fprintf(&b, "%-22s %8.3fms %8.3fms %8.3fms\n", "single-configuration",
		1e3*single.Percentile(0.5), 1e3*single.Percentile(0.9), 1e3*single.Max())
	fmt.Fprintf(&b, "%-22s %8.3fms %8.3fms %8.3fms\n", "config-preserving",
		1e3*fullS.Percentile(0.5), 1e3*fullS.Percentile(0.9), 1e3*fullS.Max())
	if single.Percentile(0.5) > 0 {
		fmt.Fprintf(&b, "slowdown of preservation: p50 %.1fx, p90 %.1fx, max %.1fx\n",
			fullS.Percentile(0.5)/single.Percentile(0.5),
			fullS.Percentile(0.9)/single.Percentile(0.9),
			fullS.Max()/single.Max())
	}
	return b.String()
}
