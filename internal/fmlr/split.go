package fmlr

import (
	"repro/internal/cond"
	"repro/internal/preprocessor"
	"repro/internal/token"
)

// This file is the region splitter behind the region-parallel parse
// (parallel.go): a lexical pass over the unit's top-level segments that
// finds cut points where the unit can be sliced into independently
// parseable regions, and prescans the typedef declarations so each region's
// symbol table can be seeded with the names in scope at its start.
//
// Both jobs are conservative approximations backed by hard checks
// elsewhere: a missed cut merely costs parallelism, and a wrong typedef
// seed is caught by the coordinator's post-parse seed validation, which
// falls back to the sequential engine. The splitter's own invariants — a
// cut only after a top-level ';' or '}' with braces, parens, and brackets
// all balanced, and only when the following region completes a declaration
// before its first conditional — are what make the region parses
// structurally identical to the sequential parse (the fuzz target
// FuzzBlockSplit checks them directly).

// region is one slice of the unit's top-level segments plus the typedef
// conditions lexically in scope at its start (nil for the first region).
// chunks holds the same slice of the input in chunk form (splitChunksAt);
// the region parses through the streaming fast path over it.
type region struct {
	segs   []preprocessor.Segment
	chunks []preprocessor.Chunk
	seed   map[string]cond.Cond
}

// minRegionTokens is the smallest region worth a goroutine; below it the
// per-region EOF bookkeeping and seam validation dominate the parse.
const minRegionTokens = 128

// minParallelTokens is the smallest unit ParseUnit tries to split. Below
// it the segment forest, the typedef prescan and the region engines cost
// about as much as the concurrency saves, or more: two workers parse a
// 909-token unit at 0.73x the sequential speed and a 2,022-token one at
// 1.06x, and win steadily only above that (1.23x at 3k-4k tokens,
// BenchmarkParallelCrossover; EXPERIMENTS.md "Region-parallel admission").
const minParallelTokens = 16 * minRegionTokens

// cutPoint marks a legal region boundary between segs[after] and
// segs[after+1].
type cutPoint struct {
	after  int // cut after this top-level segment index
	weight int // tokens in segs[:after+1], counting all conditional branches
}

// typedefEvent is one prescanned file-scope typedef name, in document order.
type typedefEvent struct {
	seg  int // top-level segment index of the declaration's end
	name string
	c    cond.Cond // presence condition of the declaration
}

// typedefScan is the lexical typedef recognizer: a small state machine that
// walks tokens at file scope and extracts the declared names of complete
// typedef declarations. It deliberately recognizes only the common shapes
// (plain declarators, comma lists, arrays, and (*name) function pointers);
// anything else is simply not seeded and, if the name matters, the seam
// validation catches the omission.
type typedefScan struct {
	brace, paren, bracket int
	active                bool     // inside "typedef ... ;" at file scope
	pend                  string   // identifier awaiting a declarator-ending token
	star                  bool     // previous token was "*"
	names                 []string // candidates of the open declaration
}

// balanced reports whether every bracket kind is closed.
func (m *typedefScan) balanced() bool {
	return m.brace == 0 && m.paren == 0 && m.bracket == 0
}

// tok advances the machine by one token, returning the completed
// declaration's names (nil normally) when the token closes a typedef.
func (m *typedefScan) tok(t *token.Token) (done []string) {
	if t.Kind == token.Punct {
		switch t.Text {
		case "{":
			m.brace++
		case "}":
			m.brace--
		case "(":
			m.paren++
		case ")":
			m.paren--
		case "[":
			m.bracket++
		case "]":
			m.bracket--
		}
	}
	if !m.active {
		if m.balanced() && t.IsIdent("typedef") {
			m.active = true
			m.pend = ""
			m.star = false
			m.names = nil
		}
		return nil
	}
	// A pending identifier is a declared name when a declarator-ending
	// token follows it. "(" is deliberately not an ending token: in
	// "typedef u32 (*fn)(void)" the identifier before "(" is the *type*,
	// and misreading it would corrupt an otherwise-correct seed.
	if t.Kind == token.Punct && (t.Text == ";" || t.Text == "," || t.Text == "[") && m.pend != "" {
		m.names = append(m.names, m.pend)
	}
	if m.brace == 0 && m.bracket == 0 && t.Kind == token.Identifier {
		switch {
		case m.paren == 0:
			m.pend = t.Text
		case m.paren == 1 && m.star:
			// Function-pointer declarator: typedef int (*name)(...).
			m.names = append(m.names, t.Text)
			m.pend = ""
		default:
			m.pend = ""
		}
	} else {
		m.pend = ""
	}
	m.star = t.Is("*")
	if m.balanced() && t.Is(";") {
		m.active = false
		return m.names
	}
	return nil
}

// depthDelta is the brace/paren/bracket displacement of a segment run.
type depthDelta struct{ brace, paren, bracket int }

// scanBranch walks one conditional branch's segments with a copy of the
// enclosing typedef machine, collecting typedef events under path and
// returning the branch's depth displacement. ok is false when the branch is
// unanalyzable: a typedef crossing its boundary, or a nested conditional
// whose branches displace depth unequally.
func scanBranch(space *cond.Space, segs []preprocessor.Segment, m typedefScan, path cond.Cond, topSeg int, events *[]typedefEvent) (depthDelta, bool) {
	base := depthDelta{m.brace, m.paren, m.bracket}
	for _, sg := range segs {
		if sg.IsToken() {
			for _, n := range m.tok(sg.Tok) {
				*events = append(*events, typedefEvent{seg: topSeg, name: n, c: path})
			}
			continue
		}
		d, ok := scanCond(space, sg, m, path, topSeg, events)
		if !ok {
			return depthDelta{}, false
		}
		m.brace += d.brace
		m.paren += d.paren
		m.bracket += d.bracket
	}
	if m.active {
		return depthDelta{}, false
	}
	return depthDelta{m.brace - base.brace, m.paren - base.paren, m.bracket - base.bracket}, true
}

// scanCond analyzes one conditional segment: every reachable branch must
// displace depth identically, and by zero when the branches do not cover
// every configuration (the implicit else contributes nothing).
func scanCond(space *cond.Space, sg preprocessor.Segment, m typedefScan, path cond.Cond, topSeg int, events *[]typedefEvent) (depthDelta, bool) {
	if m.active {
		// A typedef declaration straddling a conditional is beyond the
		// lexical prescan.
		return depthDelta{}, false
	}
	var delta depthDelta
	first := true
	covered := space.False()
	for _, br := range sg.Cond.Branches {
		covered = space.Or(covered, br.Cond)
		bp := space.And(path, br.Cond)
		if space.IsFalse(bp) {
			continue
		}
		d, ok := scanBranch(space, br.Segs, m, bp, topSeg, events)
		if !ok {
			return depthDelta{}, false
		}
		if first {
			delta = d
			first = false
		} else if d != delta {
			return depthDelta{}, false
		}
	}
	if !space.IsFalse(space.AndNot(path, covered)) && delta != (depthDelta{}) {
		// The implicit else branch is reachable and displaces nothing, so
		// the explicit branches must not either.
		return depthDelta{}, false
	}
	return delta, true
}

// splitRegions slices the unit into up to 4*want token-balanced regions.
// Over-decomposing relative to the worker count both evens out the
// work-stealing schedule (region parse times vary with conditional density)
// and shortens each region's top-level list spine, whose reduce-time splice
// cost grows with list length. ok is false when the unit yields fewer than
// two regions worth parsing concurrently.
func splitRegions(space *cond.Space, segs []preprocessor.Segment, want int) ([]region, bool) {
	total := preprocessor.CountTokens(segs)
	if want < 2 || total < 2*minRegionTokens {
		return nil, false
	}
	targetRegions := 4 * want
	if max := total / minRegionTokens; targetRegions > max {
		targetRegions = max
	}
	if targetRegions < 2 {
		return nil, false
	}

	// One pass: track depth, run the typedef machine, and collect candidate
	// cuts and typedef events until the walk poisons (an unanalyzable
	// conditional stops further cutting but does not fail the unit — the
	// remainder simply becomes part of the final region).
	var (
		m        typedefScan
		cuts     []cutPoint
		events   []typedefEvent
		weight   int
		prevText string
		funcBody bool
	)
	condAt := make([]bool, len(segs))
	for i, sg := range segs {
		if sg.IsToken() {
			tk := sg.Tok
			// A top-level "{" opens a function body exactly when it follows
			// ")" (parameter list or trailing attribute); otherwise it is an
			// initializer or a struct/union/enum body, whose closing "}" sits
			// mid-declaration and must not become a cut.
			if tk.Is("{") && m.balanced() {
				funcBody = prevText == ")"
			}
			weight++
			for _, n := range m.tok(tk) {
				events = append(events, typedefEvent{seg: i, name: n, c: space.True()})
			}
			if !m.active && m.balanced() && i < len(segs)-1 &&
				(tk.Is(";") || (tk.Is("}") && funcBody)) {
				cuts = append(cuts, cutPoint{after: i, weight: weight})
			}
			prevText = tk.Text
			continue
		}
		// A conditional between ")" and "{" hides the function-body signal;
		// resetting the lookbehind merely forfeits that cut.
		prevText = ""
		condAt[i] = true
		weight += preprocessor.CountTokens(segs[i : i+1])
		d, ok := scanCond(space, sg, m, space.True(), i, &events)
		if !ok {
			break
		}
		m.brace += d.brace
		m.paren += d.paren
		m.bracket += d.bracket
	}
	if len(cuts) == 0 {
		return nil, false
	}

	// A cut is a legal region start only when the next region completes a
	// declaration before its first top-level conditional; otherwise the
	// region's first branch merge happens at a different stack depth than
	// in the sequential parse and the stitched choice shapes diverge.
	firstCondAfter := make([]int, len(segs)+1)
	firstCondAfter[len(segs)] = len(segs)
	for i := len(segs) - 1; i >= 0; i-- {
		if condAt[i] {
			firstCondAfter[i] = i
		} else {
			firstCondAfter[i] = firstCondAfter[i+1]
		}
	}
	valid := make([]cutPoint, 0, len(cuts))
	for k, c := range cuts {
		nextCond := firstCondAfter[c.after+1]
		nextComp := len(segs)
		if k+1 < len(cuts) {
			nextComp = cuts[k+1].after
		}
		if nextCond == len(segs) || nextComp < nextCond {
			valid = append(valid, c)
		}
	}
	if len(valid) == 0 {
		return nil, false
	}

	// Token-balanced selection: the cut nearest each multiple of
	// total/targetRegions, keeping regions at least half the minimum size.
	var chosen []cutPoint
	vi := 0
	lastWeight := 0
	for k := 1; k < targetRegions; k++ {
		target := total * k / targetRegions
		for vi < len(valid) && valid[vi].weight < target {
			vi++
		}
		var best cutPoint
		switch {
		case vi == 0:
			best = valid[0]
		case vi == len(valid):
			best = valid[len(valid)-1]
		default:
			lo, hi := valid[vi-1], valid[vi]
			if target-lo.weight <= hi.weight-target {
				best = lo
			} else {
				best = hi
			}
		}
		if len(chosen) > 0 && best.after <= chosen[len(chosen)-1].after {
			continue
		}
		if best.weight-lastWeight < minRegionTokens/2 || total-best.weight < minRegionTokens/2 {
			continue
		}
		chosen = append(chosen, best)
		lastWeight = best.weight
	}
	if len(chosen) == 0 {
		return nil, false
	}

	// Materialize regions, attaching to each the typedef seeds accumulated
	// from every event at or before its start.
	regions := make([]region, 0, len(chosen)+1)
	seeds := map[string]cond.Cond{}
	ev := 0
	start := 0
	for _, c := range chosen {
		regions = append(regions, region{segs: segs[start : c.after+1], seed: snapshotSeeds(seeds, start)})
		for ev < len(events) && events[ev].seg <= c.after {
			e := events[ev]
			if cur, ok := seeds[e.name]; ok {
				seeds[e.name] = space.Or(cur, e.c)
			} else {
				seeds[e.name] = e.c
			}
			ev++
		}
		start = c.after + 1
	}
	regions = append(regions, region{segs: segs[start:], seed: snapshotSeeds(seeds, start)})
	return regions, true
}

// splitChunksAt re-slices the unit's chunk list along the segment
// boundaries splitRegions chose, attaching to each region the chunk form of
// exactly its segment slice. A conditional chunk covers one top-level
// segment and a run of n tokens covers n, so boundaries map exactly; a
// boundary inside a run sub-slices it (chunks are immutable, and the
// sub-slices share the run's token storage, so element and segment token
// pointers stay identical).
func splitChunksAt(regions []region, chunks []preprocessor.Chunk) {
	ci, off := 0, 0
	for k := range regions {
		want := len(regions[k].segs)
		out := make([]preprocessor.Chunk, 0, 4)
		for want > 0 {
			c := chunks[ci]
			if c.Cond != nil {
				out = append(out, c)
				ci++
				want--
				continue
			}
			avail := len(c.Run) - off
			if avail <= want {
				out = append(out, preprocessor.Chunk{Run: c.Run[off:]})
				want -= avail
				ci++
				off = 0
				continue
			}
			out = append(out, preprocessor.Chunk{Run: c.Run[off : off+want]})
			off += want
			want = 0
		}
		regions[k].chunks = out
	}
}

// snapshotSeeds copies the cumulative seed map for one region. The first
// region (start 0) parses from the true initial state and needs none.
func snapshotSeeds(seeds map[string]cond.Cond, start int) map[string]cond.Cond {
	if start == 0 {
		return nil
	}
	snap := make(map[string]cond.Cond, len(seeds))
	for k, v := range seeds {
		snap[k] = v
	}
	return snap
}
