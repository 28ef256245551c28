package fmlr

import (
	"sync"
	"sync/atomic"

	"repro/internal/ast"
	"repro/internal/cgrammar"
	"repro/internal/cond"
	"repro/internal/preprocessor"
	"repro/internal/symtab"
)

// This file is the region-parallel parse coordinator. The unit is split at
// balanced top-level declaration boundaries (split.go); each region is then
// parsed by its own sequential FMLR engine on its own goroutine, all
// sharing the unit's condition space, BDD factory, and resource budget —
// which is why those layers are concurrency-safe. The region results are
// joined in region order and stitched into exactly the AST the sequential
// engine would have produced.
//
// Equivalence is not assumed, it is enforced:
//
//   - Admission: only ModeBDD spaces (canonical conditions make node
//     identity transfer across engines) and only budgets without count-based
//     ceilings (count ceilings trip at interleaving-dependent moments, and
//     degradation must stay deterministic).
//   - Gate: every region must parse cleanly — exactly one accepted
//     subparser, under the True condition, at file scope, with no
//     diagnostics, no kill-switch trip, and no budget trip.
//   - Seam validation: each region parsed against typedef seeds guessed by
//     the lexical prescan; afterwards the coordinator replays the preceding
//     regions' recorded file-scope definitions and proves each region's
//     seeds equal (as BDD nodes) to the true typedef conditions at its
//     start. Any mismatch discards the parallel attempt.
//
// On any failure the caller falls back to the sequential engine, so the
// observable result is byte-identical to ParseWorkers: 1 at every worker
// count; concurrency can only change how fast the answer arrives.

// parseParallel attempts the region-parallel strategy. ok is false when the
// unit is inadmissible, does not split, or fails the equivalence gate; the
// caller then runs the sequential parse. chunks is the unit's streaming
// form, covering exactly segs: the split works on segments, and each region
// then parses its share of the chunks through the streaming fast path.
func (e *Engine) parseParallel(segs []preprocessor.Segment, chunks []preprocessor.Chunk, file string) (*Result, bool) {
	if e.space.Mode() != cond.ModeBDD {
		return nil, false
	}
	budget := e.opts.Budget
	if budget.Tripped() {
		return nil, false
	}
	if lim := budget.Limits(); lim.Tokens > 0 || lim.MacroSteps > 0 ||
		lim.Hoist > 0 || lim.BDDNodes > 0 || lim.Subparsers > 0 {
		return nil, false
	}
	regions, ok := splitRegions(e.space, segs, e.opts.ParseWorkers)
	if !ok {
		return nil, false
	}
	splitChunksAt(regions, chunks)

	ropts := e.opts
	ropts.ParseWorkers = 0
	workers := e.opts.ParseWorkers
	if workers > len(regions) {
		workers = len(regions)
	}
	subs := make([]*Engine, len(regions))
	results := make([]*Result, len(regions))
	panics := make([]any, len(regions))
	var next int64 = -1
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= len(regions) {
					return
				}
				runRegion(e.space, e.lang, ropts, regions[i], file, &subs[i], &results[i], &panics[i])
			}
		}()
	}
	wg.Wait()

	// A panicking region (fault injection fires per engine) is re-raised by
	// the sequential fallback on the caller's goroutine, where the
	// harness's panic barrier can see it — exactly as in sequential mode.
	for i := range regions {
		if panics[i] != nil {
			return nil, false
		}
	}
	if budget.Tripped() {
		return nil, false
	}
	for i, r := range results {
		if r == nil || r.Killed || len(r.Diags) > 0 || len(subs[i].accepts) != 1 ||
			!e.space.IsTrue(subs[i].accepts[0].Cond) || subs[i].acceptDepth != symtab.FileScope {
			return nil, false
		}
	}

	// Seam validation, in region order: replay the file-scope definitions
	// of regions 0..k-1 and prove region k's guessed seeds identical to the
	// true typedef conditions at its start. Region parses are only trusted
	// once every seed they ran under is proven, so the induction is sound:
	// region 0 runs from the true initial state, and a validated region's
	// definitions equal the sequential parse's.
	truth := map[string]cond.Cond{}
	for k := 1; k < len(regions); k++ {
		applyFileDefs(e.space, truth, subs[k-1].tab.FileDefs())
		if !seedsMatch(e.space, truth, regions[k].seed, subs[k].tab.Touched()) {
			return nil, false
		}
	}

	st := &stitcher{}
	acc := subs[0].accepts[0].Node
	for k := 1; k < len(regions); k++ {
		acc = st.join(acc, subs[k].accepts[0].Node)
	}
	return &Result{AST: acc, Stats: mergeRegionStats(results), Regions: len(regions)}, true
}

// runRegion parses one region with a fresh sequential engine, capturing any
// panic so a fault injected into a worker goroutine degrades into the
// sequential fallback instead of killing the process.
func runRegion(space *cond.Space, lang *cgrammar.C, opts Options, rg region, file string, sub **Engine, res **Result, panicked *any) {
	defer func() {
		if r := recover(); r != nil {
			*panicked = r
		}
	}()
	s := New(space, lang, opts)
	s.seed = rg.seed
	s.track = true
	*sub = s
	*res = s.parseStream(preprocessor.NewChunkSource(rg.chunks), file)
}

// applyFileDefs replays recorded file-scope definitions onto the typedef
// truth map, mirroring symtab.Table.Define's evolution of the
// typedef condition: a typedef definition disjoins its condition, an object
// definition shadows (subtracts) it. Map presence mirrors entry existence.
func applyFileDefs(space *cond.Space, truth map[string]cond.Cond, defs []symtab.FileDef) {
	for _, d := range defs {
		cur, ok := truth[d.Name]
		switch {
		case d.Typedef && ok:
			truth[d.Name] = space.Or(cur, d.Cond)
		case d.Typedef:
			truth[d.Name] = d.Cond
		case ok:
			truth[d.Name] = space.AndNot(cur, d.Cond)
		default:
			truth[d.Name] = space.False()
		}
	}
}

// seedsMatch proves one region's guessed seeds correct: for every name the
// region ever classified, the guessed typedef condition must equal the true
// one (absence on either side meaning False). Classify consults nothing
// else at file scope, so agreement here makes the region parse identical to
// the sequential parse of the same suffix.
func seedsMatch(space *cond.Space, truth, seed map[string]cond.Cond, touched map[string]bool) bool {
	f := space.False()
	for name := range touched {
		want, ok := truth[name]
		if !ok {
			want = f
		}
		got, ok := seed[name]
		if !ok {
			got = f
		}
		if !space.Equal(want, got) {
			return false
		}
	}
	return true
}

// spineLabel is the label of the translation unit's top-level list — the
// "spine" the regions are stitched along.
const spineLabel = "ExternalDeclarationList"

// stitcher joins region ASTs into the value the sequential parse builds.
//
// The subtlety is that a merge of top-level conditional branches captures
// the *entire accumulated list prefix* inside its choice node: sequentially
// the alternatives read List(prefix…, branchDecls…), but a region engine,
// which started from an empty list, produced only List(localPrefix…,
// branchDecls…). join therefore grafts the accumulated kids into every
// leftmost-spine position of the region's value: lists whose head is a
// spine choice recurse into it, other lists are prepended directly, and
// choices graft each alternative. A memo keeps the transform linear and
// preserves the DAG sharing the merges created.
type stitcher struct {
	ab   ast.Builder
	memo map[*ast.Node]*ast.Node
}

// join appends one region's translation-unit value onto the accumulated
// value, returning the combined value.
func (st *stitcher) join(acc, local *ast.Node) *ast.Node {
	st.memo = make(map[*ast.Node]*ast.Node)
	return st.graft(local, st.splice(acc))
}

// splice flattens the accumulated value into list kids, exactly as the
// builder's List splices a same-label list argument.
func (st *stitcher) splice(acc *ast.Node) []*ast.Node {
	if acc.Kind == ast.KindList && acc.Label == spineLabel {
		return acc.Children
	}
	return []*ast.Node{acc}
}

// graft prepends pre at every leftmost-spine position of n.
func (st *stitcher) graft(n *ast.Node, pre []*ast.Node) *ast.Node {
	if out, ok := st.memo[n]; ok {
		return out
	}
	var out *ast.Node
	switch {
	case n.Kind == ast.KindList && n.Label == spineLabel:
		kids := n.Children
		if len(kids) > 0 && kids[0].Kind == ast.KindChoice {
			// The head choice is a spine merge that captured the region's
			// local prefix; the prefix goes inside it, not before it.
			args := make([]*ast.Node, 0, len(kids))
			args = append(args, st.graft(kids[0], pre))
			args = append(args, kids[1:]...)
			out = st.ab.List(spineLabel, args...)
		} else {
			args := make([]*ast.Node, 0, len(pre)+len(kids))
			args = append(args, pre...)
			args = append(args, kids...)
			out = st.ab.List(spineLabel, args...)
		}
	case n.Kind == ast.KindChoice:
		alts := make([]ast.Choice, len(n.Alts))
		for i, a := range n.Alts {
			kid := a.Node
			if kid == nil {
				// The region contributes nothing under this alternative; the
				// spine there is just the accumulated prefix.
				alts[i] = ast.Choice{Cond: a.Cond, Node: st.ab.List(spineLabel, pre...)}
				continue
			}
			alts[i] = ast.Choice{Cond: a.Cond, Node: st.graft(kid, pre)}
		}
		out = st.ab.NewChoice(alts...)
	default:
		// A bare declaration: the region's value when it holds exactly one.
		args := make([]*ast.Node, 0, len(pre)+1)
		args = append(args, pre...)
		args = append(args, n)
		out = st.ab.List(spineLabel, args...)
	}
	st.memo[n] = out
	return out
}

// mergeRegionStats combines per-region parse statistics into exactly the
// sequential parse's numbers. Sums are exact for every content-driven
// counter; the only correction is the per-region end-of-input tail, which
// is structurally constant: each non-final region resolves its synthetic
// EOF (1 iteration), reduces TranslationUnit (1 iteration, 1 reduce), and
// accepts (1 iteration), all with a single live subparser — work the
// sequential parse performs exactly once, at the true end of input. The
// subparser alloc/reuse split depends on scratch-pool state and is summed
// as-is (it is a cache diagnostic, not a parse property — already true
// sequentially, where pool state carries across units).
func mergeRegionStats(rs []*Result) Stats {
	m := Stats{SubparserHist: make(map[int]int)}
	for _, r := range rs {
		s := &r.Stats
		m.Iterations += s.Iterations
		if s.MaxSubparsers > m.MaxSubparsers {
			m.MaxSubparsers = s.MaxSubparsers
		}
		for n, c := range s.SubparserHist {
			m.SubparserHist[n] += c
		}
		m.Forks += s.Forks
		m.Merges += s.Merges
		m.TypedefForks += s.TypedefForks
		m.Shifts += s.Shifts
		m.Reduces += s.Reduces
		m.Tokens += s.Tokens
		m.FollowHits += s.FollowHits
		m.FollowMisses += s.FollowMisses
		m.SubparserAllocs += s.SubparserAllocs
		m.SubparserReuses += s.SubparserReuses
		m.TokensStreamed += s.TokensStreamed
		m.TokensMaterialized += s.TokensMaterialized
		m.StreamFallbacks += s.StreamFallbacks
	}
	seams := len(rs) - 1
	m.Iterations -= 3 * seams
	m.Reduces -= seams
	m.SubparserHist[1] -= 3 * seams
	if m.SubparserHist[1] <= 0 {
		delete(m.SubparserHist, 1)
	}
	return m
}
