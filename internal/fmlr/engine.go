package fmlr

import (
	"container/heap"
	"fmt"
	"runtime"
	"sort"

	"repro/internal/ast"
	"repro/internal/cgrammar"
	"repro/internal/cond"
	"repro/internal/guard"
	"repro/internal/guard/faultinject"
	"repro/internal/lalr"
	"repro/internal/preprocessor"
	"repro/internal/symtab"
	"repro/internal/token"
)

// Options selects the forking strategy and optimizations (paper §4.2-4.4,
// Figure 8's optimization levels).
type Options struct {
	// FollowSet enables the token follow-set (Algorithm 3). When false the
	// engine forks a subparser per conditional branch — the MAPR baseline.
	FollowSet bool
	// LazyShifts delays forking of heads whose next action is a shift.
	LazyShifts bool
	// SharedReduces reduces one stack on behalf of several heads.
	SharedReduces bool
	// EarlyReduces prefers reducing subparsers over shifting ones at the
	// same head position.
	EarlyReduces bool
	// LargestFirst is MAPR's tie-breaker: prefer the subparser with the
	// deeper stack.
	LargestFirst bool
	// KillSwitch aborts the parse when the number of live subparsers
	// exceeds this bound (paper: 16,000). 0 means 16,000.
	KillSwitch int
	// NoChoiceMerge restricts merging to strictly redundant subparsers
	// (identical semantic values). SuperC merges differing values of
	// complete nonterminals under static choice nodes (§5.1); MAPR predates
	// that and can only merge truly redundant subparsers, which is what
	// makes the naive strategy explode on Figure 6-style code.
	NoChoiceMerge bool
	// Budget, when non-nil, governs the parse (see internal/guard): the
	// live subparser population is observed against the budget's subparser
	// axis (subsuming KillSwitch), and any trip — including one inherited
	// from an earlier stage — degrades the parse to a partial AST with an
	// error node under the abandoned work's presence condition instead of
	// a nil AST.
	Budget *guard.Budget
	// ParseWorkers caps the goroutines ParseUnit may spend on one unit.
	// With more than one, a unit of at least minParallelTokens tokens is
	// split at balanced top-level declaration boundaries and one sequential
	// subparser family per region runs concurrently over the shared
	// condition space, the region ASTs stitched back into the sequential
	// result; smaller units, where the split costs more than it saves,
	// always parse sequentially. Admission and post-hoc validation are
	// conservative: any region whose stitched typedef context cannot be
	// proven identical to the sequential parse triggers a full sequential
	// reparse, so the output is byte-identical to ParseWorkers: 1 at any
	// worker count. 0 and 1 mean sequential.
	ParseWorkers int
}

// AutoWorkers is the intra-unit worker cap the pipeline runs under: one
// worker per processor, capped at 8 — past that the region count, not the
// processor count, bounds speedup. GOMAXPROCS=1 makes every parse
// sequential.
func AutoWorkers() int {
	n := runtime.GOMAXPROCS(0)
	if n > 8 {
		n = 8
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Standard optimization levels, named as in Figure 8a.
var (
	OptAll         = Options{FollowSet: true, LazyShifts: true, SharedReduces: true, EarlyReduces: true}
	OptSharedLazy  = Options{FollowSet: true, LazyShifts: true, SharedReduces: true}
	OptShared      = Options{FollowSet: true, SharedReduces: true}
	OptLazy        = Options{FollowSet: true, LazyShifts: true}
	OptFollowOnly  = Options{FollowSet: true}
	OptMAPR        = Options{NoChoiceMerge: true}
	OptMAPRLargest = Options{NoChoiceMerge: true, LargestFirst: true}
)

// Stats instruments one parse (Figure 8's subparser counts).
type Stats struct {
	Iterations    int
	MaxSubparsers int
	// SubparserHist maps a live-subparser count to the number of main-loop
	// iterations that observed it.
	SubparserHist map[int]int
	Forks         int
	Merges        int
	TypedefForks  int // forks forced by ambiguously-defined names
	Shifts        int
	Reduces       int
	Tokens        int
	// Hot-path instrumentation: follow-set memo effectiveness and subparser
	// free-list reuse.
	FollowHits      int
	FollowMisses    int
	SubparserAllocs int
	SubparserReuses int
	// Streaming-pipeline flow counters (ParseUnit, stream.go): tokens the
	// cursor consumed straight off chunk runs with no forest element,
	// tokens parsed through materialized forest elements, and how often the
	// cursor handed its lone subparser back to the queue loop mid-stream (a
	// conditional chunk or an ambiguously-defined name). The totals are
	// deterministic for a given ParseWorkers count, but the
	// streamed/materialized split shifts with region boundaries, so the
	// differential suite compares every other field and zeroes these three.
	TokensStreamed     int
	TokensMaterialized int
	StreamFallbacks    int
}

// Diagnostic is a configuration-aware parse error.
type Diagnostic struct {
	Cond cond.Cond
	Tok  token.Token
	Msg  string
}

// Result is the outcome of a configuration-preserving parse.
type Result struct {
	AST    *ast.Node
	Stats  Stats
	Diags  []Diagnostic
	Killed bool // the kill switch tripped
	// Regions is the number of regions the region-parallel strategy parsed
	// the unit as, 0 when the parse ran sequentially. It lives outside
	// Stats, which is identical at every worker count.
	Regions int
}

// ErrKillSwitch is returned (inside Result.Killed) when the subparser
// population exceeded Options.KillSwitch.
var ErrKillSwitch = fmt.Errorf("fmlr: subparser kill switch tripped")

// stackNode is an immutable LR stack cell; stacks share tails across forks
// (paper §4: "representing the stack as a singly-linked list").
type stackNode struct {
	state int
	sym   lalr.Symbol
	val   *ast.Node
	next  *stackNode
	depth int
}

// subparser is one LR subparser (paper §4.1). A subparser is either
// *unresolved* — positioned at a token or conditional element el under
// condition c, before its follow-set is computed — or *resolved*, holding
// one or more token heads (multi-headed under lazy shifts/shared reduces).
type subparser struct {
	c     cond.Cond // total condition (OR of head conditions when resolved)
	el    *element  // unresolved position
	heads []head    // resolved heads, ordered by document position
	stack *stackNode
	depth int     // scope depth: its context is the engine's table read here under c
	bkt   *bucket // merge bucket while queued
	slot  int     // index in bkt.items while queued
	hbuf  [1]head // inline storage for the dominant single-head case
}

func (p *subparser) resolved() bool { return p.heads != nil }

// setSingleHead points p at one resolved head using the inline buffer.
func (p *subparser) setSingleHead(h head) {
	p.hbuf[0] = h
	p.heads = p.hbuf[:1]
	p.el = nil
}

// adoptHeads copies hs (which may be scratch storage — it is never
// retained) into p, inline for a single head.
func (p *subparser) adoptHeads(hs []head) {
	if len(hs) == 1 {
		p.setSingleHead(hs[0])
		return
	}
	p.heads = append([]head(nil), hs...)
	p.el = nil
}

func (p *subparser) ord() int {
	if p.resolved() {
		return p.heads[0].el.ord
	}
	return p.el.ord
}

// Engine runs FMLR parses over preprocessed token forests.
type Engine struct {
	space *cond.Space
	lang  *cgrammar.C
	opts  Options

	queue      pq
	byPos      map[*element]*bucket // merge candidates keyed by position
	followMemo map[*element][]head  // condition-free follow-set templates
	sc         *parseScratch
	specSym    lalr.Symbol // cached "DeclarationSpecifiers" lookup
	specOK     bool
	stats      Stats
	diags      []Diagnostic
	accepts    []ast.Choice
	killed     bool

	// tab is the parse's one symbol table, shared by every subparser.
	tab *symtab.Table

	// Region-parallel hooks (parallel.go). seed pre-populates the symbol
	// table's file scope with typedef conditions guessed by the lexical
	// prescan; track records file-scope observations for the post-hoc seed
	// validation; acceptDepth is the accepting subparser's scope depth (the
	// parallel gate requires a balanced file scope).
	seed        map[string]cond.Cond
	track       bool
	acceptDepth int

	// Streaming hook (stream.go): non-nil only while parseStream runs;
	// after() then materializes the next chunk instead of returning nil at
	// the forest's current top-level tail.
	stream *streamState
}

// New returns an engine for the given condition space, language, and
// options.
func New(space *cond.Space, lang *cgrammar.C, opts Options) *Engine {
	if opts.KillSwitch == 0 {
		opts.KillSwitch = 16000
	}
	e := &Engine{space: space, lang: lang, opts: opts}
	e.specSym, e.specOK = lang.Grammar.Lookup("DeclarationSpecifiers")
	return e
}

// Parse runs the FMLR algorithm (Algorithm 2) over a fully built segment
// forest: one priority queue of subparsers stepped in document order. It is
// the sequential reference the streaming entry point (ParseUnit) is held
// equal to; it ignores Options.ParseWorkers.
func (e *Engine) Parse(segs []preprocessor.Segment, file string) *Result {
	budget := e.opts.Budget
	faultinject.At(faultinject.PointParse, file, budget)
	e.acquireScratch()
	defer e.releaseScratch()
	first, ntokens := buildForest(segs, file)
	e.beginParse()
	e.stats = Stats{Tokens: ntokens, TokensMaterialized: ntokens}

	p0 := e.newSub()
	p0.c = e.space.True()
	p0.el = first
	p0.stack = e.pushNode(0, -1, nil, nil)
	e.insert(p0)

	tripped := e.runLoop(budget)
	return e.finishParse(budget, tripped)
}

// beginParse wires the freshly acquired scratch block into the engine and
// clears the per-parse result state.
func (e *Engine) beginParse() {
	e.queue = pq{items: e.sc.qbuf[:0], less: e.less}
	e.byPos = e.sc.byPos
	e.followMemo = e.sc.followMemo
	e.diags = nil
	e.accepts = nil
	e.killed = false
	e.acceptDepth = 0
	e.tab = symtab.NewSeeded(e.space, e.seed)
	if e.track {
		e.tab.Track()
	}
}

// runLoop is the main parse loop: pop the earliest subparser, resolve or
// step it, until the queue drains, the kill switch fires, or the budget
// trips. In streaming mode a lone unresolved subparser on the run token
// materialized last resumes the stream's cursor (stream.go), which steps
// tokens without queue traffic until variability reappears.
func (e *Engine) runLoop(budget *guard.Budget) (tripped bool) {
	for e.queue.Len() > 0 {
		if e.stream != nil && e.queue.Len() == 1 && e.opts.KillSwitch >= 1 {
			if p := e.queue.items[0]; !p.resolved() && e.stream.resumeAt(p.el) {
				e.pop()
				if e.fastDrain(p, budget) {
					return true
				}
				continue
			}
		}
		if !e.tick(budget, e.queue.Len()) {
			return !e.killed
		}
		p := e.pop()
		if !p.resolved() {
			e.resolve(p)
			continue
		}
		e.step(p)
	}
	return false
}

// tick does one loop iteration's accounting with n live subparsers: budget
// tick, iteration count, histogram, peak, kill switch, subparser observe.
// It reports false when the iteration must not run — the budget tripped,
// or the kill switch fired (e.killed) — and the iteration is counted only
// if the budget's tick let it start. The cursor calls it with n = 1, which
// never exceeds its KillSwitch of at least 1.
func (e *Engine) tick(budget *guard.Budget, n int) bool {
	if !budget.Tick("fmlr") {
		return false
	}
	e.stats.Iterations++
	// Histogram into a flat scratch counter; the map-shaped
	// Stats.SubparserHist is materialized once after the loop.
	if n >= len(e.sc.hist) {
		grown := make([]int, n+64)
		copy(grown, e.sc.hist)
		e.sc.hist = grown
	}
	e.sc.hist[n]++
	if n > e.stats.MaxSubparsers {
		e.stats.MaxSubparsers = n
	}
	if n > e.opts.KillSwitch {
		e.killed = true
		return false
	}
	return budget.Observe("fmlr", guard.AxisSubparsers, int64(n))
}

// finishParse converts the loop's end state into a Result: budget trips
// degrade into a partial AST, the flat histogram becomes the map-shaped
// stat, and the accepted alternatives combine into the unit's value.
func (e *Engine) finishParse(budget *guard.Budget, tripped bool) *Result {
	if tripped {
		e.degrade(budget)
	}
	e.stats.SubparserHist = make(map[int]int)
	for n, count := range e.sc.hist {
		if count != 0 {
			e.stats.SubparserHist[n] = count
		}
	}
	res := &Result{Stats: e.stats, Diags: e.diags, Killed: e.killed}
	switch len(e.accepts) {
	case 0:
	case 1:
		res.AST = e.accepts[0].Node
	default:
		res.AST = e.sc.ab.NewChoice(e.accepts...)
	}
	return res
}

// degrade converts a budget trip into graceful degradation: the subparsers
// still queued represent abandoned work; their conditions' disjunction is
// the presence condition under which the unit's parse is incomplete. An
// error node under that condition joins the accepted alternatives, so the
// unit yields a partial AST instead of nothing, and the trip diagnostic is
// annotated and mirrored into the parse diagnostics.
func (e *Engine) degrade(budget *guard.Budget) {
	d := budget.Trip()
	if d == nil {
		return
	}
	if d.Axis == guard.AxisSubparsers {
		// The budget's subparser axis subsumes the legacy kill switch;
		// report it through the same Killed flag so Figure 8 accounting
		// sees one population-explosion signal.
		e.killed = true
	}
	errCond := e.space.False()
	for _, p := range e.queue.items {
		errCond = e.space.Or(errCond, p.c)
	}
	if e.space.IsFalse(errCond) {
		errCond = e.space.True()
	}
	budget.Annotate(e.space.String(errCond),
		fmt.Sprintf("parse abandoned after %d iterations (%d shifts, peak %d subparsers)",
			e.stats.Iterations, e.stats.Shifts, e.stats.MaxSubparsers))
	e.diags = append(e.diags, Diagnostic{Cond: errCond, Msg: d.Error()})
	e.accepts = append(e.accepts, ast.Choice{Cond: errCond, Node: ast.Error(d.Error())})
}

// pushNode allocates a stack cell from the parse arena.
func (e *Engine) pushNode(state int, sym lalr.Symbol, val *ast.Node, next *stackNode) *stackNode {
	nd := e.sc.arena.alloc()
	nd.state = state
	nd.sym = sym
	nd.val = val
	nd.next = next
	if next != nil {
		nd.depth = next.depth + 1
	} else {
		nd.depth = 0
	}
	return nd
}

// pq is the subparser priority queue (a binary heap ordered by e.less).
type pq struct {
	items []*subparser
	less  func(a, b *subparser) bool
}

func (q *pq) Len() int           { return len(q.items) }
func (q *pq) Less(i, j int) bool { return q.less(q.items[i], q.items[j]) }
func (q *pq) Swap(i, j int)      { q.items[i], q.items[j] = q.items[j], q.items[i] }
func (q *pq) Push(x interface{}) { q.items = append(q.items, x.(*subparser)) }
func (q *pq) Pop() interface{} {
	n := len(q.items)
	it := q.items[n-1]
	q.items = q.items[:n-1]
	return it
}

// pop removes the highest-priority subparser: earliest head position, with
// the configured tie-breakers.
func (e *Engine) pop() *subparser {
	p := heap.Pop(&e.queue).(*subparser)
	e.unindex(p)
	return p
}

func (e *Engine) less(a, b *subparser) bool {
	ao, bo := a.ord(), b.ord()
	if ao != bo {
		return ao < bo
	}
	// Unresolved subparsers step first: resolving only computes the
	// follow-set, and letting a resolved subparser shift past a laggard at
	// the same position would forfeit the merge.
	if a.resolved() != b.resolved() {
		return !a.resolved()
	}
	if e.opts.EarlyReduces {
		ar, br := e.willReduce(a), e.willReduce(b)
		if ar != br {
			return ar
		}
	}
	if e.opts.LargestFirst {
		return a.stack.depth > b.stack.depth
	}
	return false
}

// willReduce reports whether the subparser's next LR action is a reduce
// (the early-reduces tie-breaker).
func (e *Engine) willReduce(p *subparser) bool {
	if !p.resolved() {
		return false
	}
	act := e.lang.Table.Actions[p.stack.state][p.heads[0].sym]
	return act.Kind == lalr.ActionReduce
}

// posKey returns the element keying merge candidates.
func (p *subparser) posKey() *element {
	if p.resolved() {
		return p.heads[0].el
	}
	return p.el
}

// mergeScanLimit bounds how many same-position candidates one insert
// examines; beyond it (reachable only when a naive strategy floods one
// position) merging degrades gracefully instead of going quadratic.
const mergeScanLimit = 64

// insert adds p to the queue, merging it into an equivalent subparser when
// possible (paper Figure 7's Merge). A merged p is recycled; the caller
// must not touch it after insert returns.
func (e *Engine) insert(p *subparser) {
	key := p.posKey()
	b := e.byPos[key]
	if b == nil {
		b = e.sc.newBucket()
		e.byPos[key] = b
	}
	// Scan the most recent mergeScanLimit live candidates, oldest first,
	// skipping unindex's tombstones.
	start := len(b.items)
	for i, live := len(b.items)-1, 0; i >= 0 && live < mergeScanLimit; i-- {
		if b.items[i] != nil {
			live++
		}
		start = i
	}
	for _, q := range b.items[start:] {
		if q == nil {
			continue
		}
		if e.tryMerge(q, p) {
			e.stats.Merges++
			e.freeSub(p)
			return
		}
	}
	heap.Push(&e.queue, p)
	p.bkt = b
	p.slot = len(b.items)
	b.items = append(b.items, p)
}

// unindex removes a popped subparser from its merge bucket in O(1) by
// tombstoning its recorded slot; buckets compact when tombstones dominate.
// (The previous ordered-removal implementation was the single hottest
// function in MAPR-mode profiles.)
func (e *Engine) unindex(p *subparser) {
	b := p.bkt
	if b == nil || p.slot >= len(b.items) || b.items[p.slot] != p {
		return
	}
	p.bkt = nil
	b.items[p.slot] = nil
	b.dead++
	if b.dead >= 16 && b.dead*2 > len(b.items) {
		live := b.items[:0]
		for _, q := range b.items {
			if q != nil {
				q.slot = len(live)
				live = append(live, q)
			}
		}
		clear(b.items[len(live):])
		b.items = live
		b.dead = 0
	}
}

// resolve turns an unresolved subparser into resolved subparsers, via the
// token follow-set or MAPR's naive per-branch forking.
func (e *Engine) resolve(p *subparser) {
	if p.el.tok != nil {
		// Ordinary token: the follow-set is the singleton {(c, el)}.
		e.sc.oneHead[0] = head{cond: p.c, el: p.el}
		e.resolveHeads(p, e.sc.oneHead[:])
		return
	}
	if !e.opts.FollowSet {
		// MAPR: one subparser per branch, plus the implicit branch. p is
		// recycled as the first forked subparser.
		c0, el0, stack, depth := p.c, p.el, p.stack, p.depth
		reused := false
		take := func() *subparser {
			if !reused {
				reused = true
				return p
			}
			q := e.newSub()
			q.stack = stack
			q.depth = depth
			return q
		}
		covered := e.space.False()
		for _, br := range el0.cnd.branches {
			covered = e.space.Or(covered, br.cond)
			bc := e.space.And(c0, br.cond)
			if e.space.IsFalse(bc) {
				continue
			}
			pos := br.first
			if pos == nil {
				pos = e.after(el0)
			}
			e.stats.Forks++
			q := take()
			q.c = bc
			q.el = pos
			e.insert(q)
		}
		rest := e.space.And(c0, e.space.Not(covered))
		if !e.space.IsFalse(rest) {
			if nxt := e.after(el0); nxt != nil {
				e.stats.Forks++
				q := take()
				q.c = rest
				q.el = nxt
				e.insert(q)
			}
		}
		if !reused {
			e.freeSub(p)
		}
		return
	}
	T := e.follow(p.c, p.el)
	e.resolveHeads(p, T)
}

// resolveHeads classifies the heads' terminals (with typedef
// reclassification) and forks per the optimization level.
func (e *Engine) resolveHeads(p *subparser, T []head) {
	sc := e.sc
	sc.headsBuf = sc.headsBuf[:0]
	for _, h := range T {
		sc.headsBuf = e.reclassify(p, h, sc.headsBuf)
	}
	e.fork(p, sc.headsBuf)
}

// reclassify applies the context plugin to one head: identifiers naming
// types become TYPEDEFNAME terminals; ambiguously-defined names split into
// both classifications, forcing a fork even without an explicit conditional
// (paper §5.2).
// reclassify appends the head's classification(s) to dst and returns it;
// appending into the caller's scratch keeps the per-token path free of the
// single-element slices it used to allocate.
func (e *Engine) reclassify(p *subparser, h head, dst []head) []head {
	if h.reclassified {
		return append(dst, h)
	}
	if !h.el.clsSet {
		h.el.cls = e.lang.Classify(h.el.tok)
		h.el.clsSet = true
	}
	h.sym = h.el.cls
	h.reclassified = true
	if h.sym != e.lang.Identifier {
		return append(dst, h)
	}
	sym, cl, ambiguous := e.resolveName(h.el.tok.Text, p.depth, h.cond)
	if !ambiguous {
		h.sym = sym
		return append(dst, h)
	}
	// Ambiguously defined: both classifications are live.
	e.stats.TypedefForks++
	td := h
	td.cond = cl.TypedefCond
	td.sym = e.lang.TypedefName
	other := h
	other.cond = cl.OtherCond
	return append(dst, td, other)
}

// resolveName resolves an IDENTIFIER terminal against the symbol table
// under c at depth: TYPEDEFNAME or IDENTIFIER when only one meaning is live,
// and ambiguous with the classification when the name is a typedef in some
// configurations of c and an object in others. The queue loop forks on an
// ambiguous name; the cursor hands it to the queue loop.
func (e *Engine) resolveName(name string, depth int, c cond.Cond) (sym lalr.Symbol, cl symtab.Classification, ambiguous bool) {
	cl = e.tab.Classify(name, depth, c)
	switch {
	case e.space.IsFalse(cl.TypedefCond):
		return e.lang.Identifier, cl, false
	case e.space.IsFalse(cl.OtherCond):
		return e.lang.TypedefName, cl, false
	}
	return e.lang.Identifier, cl, true
}

// fork creates subparsers for the heads per the optimization level (paper
// Figure 7b) and inserts them into the queue. fork owns p: it is recycled
// as the first emitted subparser (or freed when nothing is emitted). heads
// may be scratch storage; emitted subparsers copy what they keep.
func (e *Engine) fork(p *subparser, heads []head) {
	if len(heads) == 0 {
		e.freeSub(p)
		return
	}
	if len(heads) == 1 {
		p.c = heads[0].cond
		p.adoptHeads(heads)
		e.insert(p)
		return
	}
	stack, depth := p.stack, p.depth
	reused := false
	take := func() *subparser {
		if !reused {
			reused = true
			return p
		}
		q := e.newSub()
		q.stack = stack
		q.depth = depth
		return q
	}
	if !e.opts.LazyShifts && !e.opts.SharedReduces {
		for _, h := range heads {
			e.stats.Forks++
			q := take()
			q.c = h.cond
			q.setSingleHead(h)
			e.insert(q)
		}
		return
	}
	sc := e.sc
	sc.shiftBuf = sc.shiftBuf[:0]
	sc.singleBuf = sc.singleBuf[:0]
	sc.prodBuf = sc.prodBuf[:0]
	acts := e.lang.Table.Actions[stack.state]
	for _, h := range heads {
		act := acts[h.sym]
		switch {
		case act.Kind == lalr.ActionShift && e.opts.LazyShifts:
			sc.shiftBuf = append(sc.shiftBuf, h)
		case act.Kind == lalr.ActionReduce && e.opts.SharedReduces:
			seen := false
			for _, r := range sc.prodBuf {
				if r == act.Target {
					seen = true
					break
				}
			}
			if !seen {
				sc.prodBuf = append(sc.prodBuf, act.Target)
			}
		case act.Kind == lalr.ActionError:
			e.parseError(h)
		default:
			sc.singleBuf = append(sc.singleBuf, h)
		}
	}
	emit := func(hs []head) {
		if len(hs) == 0 {
			return
		}
		sortHeadsByOrd(hs)
		c := hs[0].cond
		for _, h := range hs[1:] {
			c = e.space.Or(c, h.cond)
		}
		e.stats.Forks++
		q := take()
		q.c = c
		q.adoptHeads(hs)
		e.insert(q)
	}
	emit(sc.shiftBuf)
	// Deterministic order over reduce groups.
	sort.Ints(sc.prodBuf)
	for _, r := range sc.prodBuf {
		sc.groupBuf = sc.groupBuf[:0]
		for _, h := range heads {
			if act := acts[h.sym]; act.Kind == lalr.ActionReduce && act.Target == r {
				sc.groupBuf = append(sc.groupBuf, h)
			}
		}
		emit(sc.groupBuf)
	}
	for _, h := range sc.singleBuf {
		e.stats.Forks++
		q := take()
		q.c = h.cond
		q.setSingleHead(h)
		e.insert(q)
	}
	if !reused {
		e.freeSub(p)
	}
}

// step performs one LR action on a resolved subparser (Algorithm 2 lines
// 6-8, generalized to multi-headed subparsers per §4.4).
func (e *Engine) step(p *subparser) {
	h := p.heads[0]
	act := e.lang.Table.Actions[p.stack.state][h.sym]
	switch act.Kind {
	case lalr.ActionShift:
		if len(p.heads) > 1 {
			// Fork off a single-headed subparser for the earliest head and
			// shift it; the rest stay lazy, carried on by p itself.
			e.stats.Forks++
			single := e.newSub()
			single.c = h.cond
			single.setSingleHead(h)
			single.stack = p.stack
			single.depth = p.depth
			rest := p.heads[1:]
			c := rest[0].cond
			for _, r := range rest[1:] {
				c = e.space.Or(c, r.cond)
			}
			p.c = c
			p.heads = rest
			e.shift(single, h, act.Target)
			e.insert(p)
			return
		}
		e.shift(p, h, act.Target)
	case lalr.ActionReduce:
		e.reduce(p, act.Target)
		if len(p.heads) > 1 {
			// Shared reduce: actions may now differ per head; refork.
			e.fork(p, p.heads)
			return
		}
		e.insert(p)
	case lalr.ActionAccept:
		e.accept(p, h)
		// Remaining heads (if any) are impossible at EOF; drop them.
		e.freeSub(p)
	default:
		e.parseError(h)
		if len(p.heads) > 1 {
			rest := p.heads[1:]
			c := rest[0].cond
			for _, r := range rest[1:] {
				c = e.space.Or(c, r.cond)
			}
			p.c = c
			p.heads = rest
			e.insert(p)
			return
		}
		e.freeSub(p)
	}
}

// shift pushes the head's token and repositions the subparser after it.
func (e *Engine) shift(p *subparser, h head, target int) {
	e.stats.Shifts++
	p.stack = e.pushNode(target, h.sym, h.el.leafNode(&e.sc.ab), p.stack)
	p.c = h.cond
	p.heads = nil
	p.el = e.after(h.el)
	if p.el == nil {
		// EOF was shifted; accept happens via the table.
		e.freeSub(p)
		return
	}
	e.insert(p)
}

func (e *Engine) accept(p *subparser, h head) {
	// The value under the EOF shift position: top of stack holds the start
	// symbol's value.
	e.accepts = append(e.accepts, ast.Choice{Cond: h.cond, Node: p.stack.val})
	e.acceptDepth = p.depth
}

func (e *Engine) parseError(h head) {
	e.diags = append(e.diags, Diagnostic{
		Cond: h.cond,
		Tok:  *h.el.tok,
		Msg:  fmt.Sprintf("parse error on %s", h.el.tok),
	})
}

// tryMerge merges p into q when they have the same heads and compatible
// stacks (paper Figure 7a / §5.1's complete-nonterminal rule). Returns true
// when merged; q is updated in place (it is already queued).
func (e *Engine) tryMerge(q, p *subparser) bool {
	if q.resolved() != p.resolved() {
		return false
	}
	if q.resolved() {
		if len(q.heads) != len(p.heads) {
			return false
		}
		for i := range q.heads {
			if q.heads[i].el != p.heads[i].el || q.heads[i].sym != p.heads[i].sym {
				return false
			}
		}
	} else if q.el != p.el {
		return false
	}
	// Contexts merge only at one scope depth (paper §5.2); the merged
	// context is the table read under the disjoined condition.
	if q.depth != p.depth {
		return false
	}
	merged, ok := e.mergeStacks(q, p)
	if !ok {
		return false
	}
	// Merge conditions per head and overall.
	if q.resolved() {
		for i := range q.heads {
			q.heads[i].cond = e.space.Or(q.heads[i].cond, p.heads[i].cond)
		}
	}
	q.c = e.space.Or(q.c, p.c)
	q.stack = merged
	return true
}

// mergeStacks verifies stack compatibility and builds the merged stack.
// Stacks are compatible when they have the same states and symbols and
// their semantic values agree, except that differing values of complete
// nonterminals combine under a static choice node.
func (e *Engine) mergeStacks(q, p *subparser) (*stackNode, bool) {
	if q.stack == p.stack {
		return q.stack, true
	}
	if q.stack.depth != p.stack.depth {
		return nil, false
	}
	// Walk until the shared tail; verify mergeability.
	// First pass: pure compatibility check, allocation-free (this runs for
	// every merge candidate; most fail).
	depth := 0
	a, b := q.stack, p.stack
	for a != b {
		if a.state != b.state || a.sym != b.sym {
			return nil, false
		}
		if a.val != b.val {
			// MAPR-mode merging requires strictly redundant subparsers.
			if e.opts.NoChoiceMerge {
				return nil, false
			}
			if !sameLeaf(a.val, b.val) && !e.lang.IsComplete(a.sym) {
				return nil, false
			}
		}
		depth++
		a, b = a.next, b.next
	}
	// Second pass: rebuild the divergent prefix with choice values.
	sc := e.sc
	sc.frameA = sc.frameA[:0]
	sc.frameB = sc.frameB[:0]
	a, b = q.stack, p.stack
	for i := 0; i < depth; i++ {
		sc.frameA = append(sc.frameA, a)
		sc.frameB = append(sc.frameB, b)
		a, b = a.next, b.next
	}
	merged := a
	for i := depth - 1; i >= 0; i-- {
		fa, fb := sc.frameA[i], sc.frameB[i]
		val := fa.val
		if fa.val != fb.val && !sameLeaf(fa.val, fb.val) {
			val = e.sc.ab.NewChoice(
				ast.Choice{Cond: q.c, Node: fa.val},
				ast.Choice{Cond: p.c, Node: fb.val},
			)
		}
		merged = e.pushNode(fa.state, fa.sym, val, merged)
	}
	return merged, true
}

// sameLeaf reports whether two values are token leaves with identical text —
// e.g. the commas of different initializer-list entries. The paper achieves
// the same merge behaviour by annotating punctuation as layout (no value);
// keeping the leaves preserves source fidelity without blocking merges.
func sameLeaf(a, b *ast.Node) bool {
	return a != nil && b != nil &&
		a.Kind == ast.KindToken && b.Kind == ast.KindToken &&
		a.Tok.Kind == b.Tok.Kind && a.Tok.Text == b.Tok.Text
}
