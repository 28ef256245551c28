package fmlr

import (
	"fmt"
	"unsafe"

	"repro/internal/guard"
	"repro/internal/guard/faultinject"
	"repro/internal/lalr"
	"repro/internal/preprocessor"
	"repro/internal/token"
)

// This file is the stream-fused parse path: the preprocessor hands the
// engine Chunks (dense True-condition token runs, plus materialized
// Conditionals where hoisting genuinely buffered content) and the engine
// consumes them without ever building the unit-wide segment slab.
//
// The fused loop has two gears, both only engaged while exactly one
// subparser is live — which is the overwhelmingly common state between
// conditionals:
//
//   - Cursor mode walks a run chunk's tokens in place: no forest element,
//     no heap traffic, no merge bucket, just classify → reduce* → shift
//     against the LR table. This is as close to flap-style fusion as the
//     configuration-preserving setting allows.
//   - Element mode steps lazily materialized forest elements the same way.
//     It exists because conditional episodes materialize chunks (the queue
//     loop needs the navigable forest), and the single survivor of such an
//     episode should still bypass the queue on the way to the next one.
//
// Whenever variability reappears — a conditional chunk, an ambiguously
// defined name, EOF — the fast path parks its subparser back in the queue
// and the classic loop takes over; the forest keeps growing chunk-at-a-time
// through Engine.after. Every simulated iteration replicates the queue
// loop's accounting (budget ticks, iteration counts, histogram, observes)
// exactly, so streaming changes no observable statistic; the differential
// suite (stream_test.go) holds ParseUnit to byte equality with the
// sequential reference, Engine.Parse over the unit's segment forest.

// BytesPerStreamedToken is the per-token footprint the cursor gear avoids:
// the materialized Segment and the forest element the reference path
// (Engine.Parse) builds for every token. Metrics use it to report bytes
// saved by streaming.
const BytesPerStreamedToken = int64(unsafe.Sizeof(element{}) + unsafe.Sizeof(preprocessor.Segment{}))

// streamState is the engine's view of an in-progress chunk stream: the
// source, the lazily built forest (tail = last top-level element), and the
// cursor gear's position inside the current run chunk.
type streamState struct {
	src  preprocessor.TokenSource
	fb   forestBuilder
	file string

	tail    *element // last materialized top-level element (nil: no chain)
	eofDone bool     // synthetic EOF already materialized

	// Cursor gear: the run being consumed in place, nil when inactive.
	run    []token.Token
	runIdx int

	// One-chunk lookahead so the fast path can choose the cursor gear for a
	// run without committing a conditional chunk it must hand back.
	pend    preprocessor.Chunk
	hasPend bool
}

func (st *streamState) take() (preprocessor.Chunk, bool) {
	if st.hasPend {
		st.hasPend = false
		return st.pend, true
	}
	return st.src.Next()
}

func (st *streamState) peek() (preprocessor.Chunk, bool) {
	if !st.hasPend {
		c, ok := st.src.Next()
		if !ok {
			return preprocessor.Chunk{}, false
		}
		st.pend, st.hasPend = c, true
	}
	return st.pend, true
}

// link appends a freshly materialized top-level chain [h..t]; with no chain
// open (tail nil) it starts one.
func (st *streamState) link(h, t *element) {
	if st.tail != nil {
		st.tail.next = h
	}
	st.tail = t
}

// materializeNext converts the next chunk into forest elements appended at
// the top level, returning the first new element. At stream end it
// materializes the synthetic EOF exactly once, then reports nil.
//
// Run chunks convert one token at a time: the remainder is pushed back as
// the pending chunk, so a multi-subparser episode that happens to span the
// chunk boundary materializes only the tokens it actually steps over, and
// the lone survivor of a conditional episode re-enters the cursor gear at
// the next tail check instead of walking a fully materialized run.
func (st *streamState) materializeNext() *element {
	for {
		c, ok := st.take()
		if !ok {
			if st.eofDone {
				return nil
			}
			st.eofDone = true
			eof := st.fb.newEOF(st.file)
			st.link(eof, eof)
			return eof
		}
		if c.Cond != nil {
			el := st.fb.newElem(nil)
			ce := &condElem{}
			el.cnd = ce
			for _, br := range c.Cond.Branches {
				ce.branches = append(ce.branches, branchElem{
					cond:  br.Cond,
					first: st.fb.convert(br.Segs, el),
				})
			}
			st.link(el, el)
			return el
		}
		if len(c.Run) > 0 {
			// take() just cleared any pending chunk, so the slot is free for
			// the unconverted remainder.
			h, t := st.fb.convertRun(c.Run[:1])
			if len(c.Run) > 1 {
				st.pend, st.hasPend = preprocessor.Chunk{Run: c.Run[1:]}, true
			}
			st.link(h, t)
			return h
		}
		// Empty run chunk (not produced by the writer, but legal): skip.
	}
}

// materializeRunSuffix converts the cursor's next unconsumed token into a
// fresh top-level chain and deactivates the cursor, returning the chain's
// first element; the rest of the run is pushed back as the pending chunk
// and converts lazily through materializeNext. The consumed prefix gets no
// elements; the old chain (if any) is fully consumed and never linked to,
// so its dangling tail is unreachable.
func (st *streamState) materializeRunSuffix() *element {
	st.tail = nil
	rest := st.run[st.runIdx:]
	st.run = nil
	st.runIdx = 0
	if len(rest) == 0 {
		return st.materializeNext()
	}
	// The cursor gear is only entered by take()-ing a run chunk, which
	// clears the pending slot, and nothing refills it while the cursor is
	// active — so the remainder can be pushed back without clobbering.
	h, t := st.fb.convertRun(rest[:1])
	if len(rest) > 1 {
		st.pend, st.hasPend = preprocessor.Chunk{Run: rest[1:]}, true
	}
	st.link(h, t)
	return h
}

// ParseUnit parses a preprocessed unit, streaming its chunks straight into
// the LR loop. With Options.ParseWorkers > 1 it first attempts the
// region-parallel strategy (parallel.go), falling back to the sequential
// stream whenever the unit does not split cleanly or the equivalence gate
// fails. This is the entry point core/harness use.
func (e *Engine) ParseUnit(u *preprocessor.Unit) *Result {
	if e.opts.ParseWorkers > 1 {
		if res, ok := e.parseParallel(u.EnsureSegments(), u.Chunks, u.File); ok {
			return res
		}
	}
	return e.parseStream(preprocessor.NewChunkSource(u.Chunks), u.File)
}

// parseStream is the sequential parse over a chunk stream. It boots the
// initial subparser directly into the cursor gear when the unit opens with
// a True-condition run, and otherwise materializes the first chunk and
// starts the queue loop; the loop and the fast path then trade control as
// variability comes and goes.
func (e *Engine) parseStream(src preprocessor.TokenSource, file string) *Result {
	budget := e.opts.Budget
	faultinject.At(faultinject.PointParse, file, budget)
	e.acquireScratch()
	defer e.releaseScratch()
	e.beginParse()
	st := &streamState{src: src, file: file}
	e.stream = st
	defer func() {
		e.stream = nil
		e.fastStall = nil
	}()
	e.stats = Stats{}

	p0 := e.newSub()
	p0.c = e.space.True()
	p0.stack = e.pushNode(0, -1, nil, nil)

	tripped := false
	booted := false
	if e.opts.KillSwitch >= 1 {
		if c, ok := st.peek(); ok && c.Run != nil {
			st.take()
			st.run, st.runIdx = c.Run, 0
			tripped = e.fastDrain(p0, budget)
			booted = true
		}
	}
	if !booted {
		p0.el = st.materializeNext()
		e.insert(p0)
	}
	if !tripped {
		tripped = e.runLoop(budget)
	}

	// Token accounting: a completed parse has seen every token either
	// through the cursor or through a materialized element, but a killed,
	// tripped, or error-stopped parse abandons the stream's remainder. The
	// reference path counts the whole unit up front (Stats.Tokens), so drain
	// and count what never arrived; it was never materialized, and charging
	// it to the materialized side keeps Tokens = Streamed + Materialized.
	rest := len(st.run) - st.runIdx
	for {
		c, ok := st.take()
		if !ok {
			break
		}
		if c.Cond != nil {
			for _, b := range c.Cond.Branches {
				rest += preprocessor.CountTokens(b.Segs)
			}
			continue
		}
		rest += len(c.Run)
	}
	e.stats.Tokens = st.fb.tokens + e.stats.TokensStreamed + rest
	e.stats.TokensMaterialized = st.fb.tokens + rest
	return e.finishParse(budget, tripped)
}

// tickIter replicates one queue-loop iteration's preamble for a lone
// subparser: budget tick, iteration count, histogram, max, subparser
// observe. It returns false when the budget trips (before or after the
// iteration is counted, exactly as the queue loop would).
func (e *Engine) tickIter(budget *guard.Budget) bool {
	if !budget.Tick("fmlr") {
		return false
	}
	e.stats.Iterations++
	if len(e.sc.hist) < 2 {
		grown := make([]int, 65)
		copy(grown, e.sc.hist)
		e.sc.hist = grown
	}
	e.sc.hist[1]++
	if e.stats.MaxSubparsers < 1 {
		e.stats.MaxSubparsers = 1
	}
	return budget.Observe("fmlr", guard.AxisSubparsers, 1)
}

// fastClassify resolves one token's terminal the way reclassify does for a
// singleton follow-set, using the element's cached context-free
// classification when it has an element. ambiguous reports a name defined
// as both typedef and object in the current condition — the fast path's
// signal to hand the token to the queue loop, which forks.
func (e *Engine) fastClassify(p *subparser, t *token.Token, el *element) (sym lalr.Symbol, ambiguous bool) {
	var ok bool
	if el != nil {
		if !el.clsSet {
			el.cls, el.clsOK = e.lang.Classify(*t)
			el.clsSet = true
		}
		sym, ok = el.cls, el.clsOK
	} else {
		sym, ok = e.lang.Classify(*t)
	}
	if !ok {
		sym = e.lang.Identifier
	}
	if sym != e.lang.Identifier {
		return sym, false
	}
	cl := e.tab.Classify(t.Text, p.depth, p.c)
	switch {
	case e.space.IsFalse(cl.TypedefCond):
		return sym, false
	case e.space.IsFalse(cl.OtherCond):
		return e.lang.TypedefName, false
	default:
		return sym, true
	}
}

// fastDrain steps a lone unresolved subparser token by token until
// variability (a conditional, an ambiguous name, EOF) or a budget trip
// hands control back to the queue loop. On entry p is popped and either the
// cursor gear is active (st.run non-nil, p.el nil) or p.el is an ordinary
// token element. On a non-trip return p is back in the queue or dead (parse
// error); on a trip (true) p is re-queued so degradation sees its
// condition.
func (e *Engine) fastDrain(p *subparser, budget *guard.Budget) (tripped bool) {
	st := e.stream
	for {
		if st.run != nil {
			// --- cursor gear: consume the current run chunk in place ---
			if st.runIdx >= len(st.run) {
				if c, ok := st.peek(); ok && c.Run != nil {
					st.take()
					st.run, st.runIdx = c.Run, 0
					continue
				}
				// Next is a conditional chunk or EOF: leave the cursor and
				// re-queue at the materialized continuation.
				wasEOF := !st.hasPend
				st.run = nil
				st.runIdx = 0
				st.tail = nil
				p.el = st.materializeNext()
				e.insert(p)
				if !wasEOF {
					e.stats.StreamFallbacks++
				}
				return false
			}
			t := &st.run[st.runIdx]
			sym, ambiguous := e.fastClassify(p, t, nil)
			if ambiguous {
				el := st.materializeRunSuffix()
				p.el = el
				e.fastStall = el
				e.insert(p)
				e.stats.StreamFallbacks++
				return false
			}
			if !e.tickIter(budget) { // the resolve iteration
				p.el = st.materializeRunSuffix()
				e.insert(p)
				return true
			}
			for {
				act := e.lang.Table.Actions[p.stack.state][sym]
				switch act.Kind {
				case lalr.ActionReduce:
					if !e.tickIter(budget) {
						p.el = st.materializeRunSuffix()
						e.insert(p)
						return true
					}
					e.reduce(p, act.Target)
					continue
				case lalr.ActionShift:
					if !e.tickIter(budget) {
						p.el = st.materializeRunSuffix()
						e.insert(p)
						return true
					}
					e.stats.Shifts++
					if !e.lang.IsLayout(sym) {
						p.stack = e.pushNode(act.Target, sym, e.sc.ab.Leaf(*t), p.stack)
					} else {
						p.stack = e.pushNode(act.Target, sym, nil, p.stack)
					}
					st.runIdx++
					e.stats.TokensStreamed++
				default:
					// Accept is impossible before the synthetic EOF; error.
					if !e.tickIter(budget) {
						p.el = st.materializeRunSuffix()
						e.insert(p)
						return true
					}
					e.diags = append(e.diags, Diagnostic{
						Cond: p.c,
						Tok:  *t,
						Msg:  fmt.Sprintf("parse error on %s", t),
					})
					e.freeSub(p)
					// The unconsumed remainder is counted by parseStream's
					// end-of-parse drain; leave st.run in place.
					return false
				}
				break
			}
			continue
		}

		// --- element gear: step the materialized forest ---
		el := p.el
		if el == nil {
			// Defensive: should not happen (EOF is materialized, not nil).
			e.freeSub(p)
			return false
		}
		if el.tok == nil || el.tok.Kind == token.EOF || el == e.fastStall {
			// A conditional, end of input, or a stalled ambiguity: the queue
			// loop handles it.
			e.insert(p)
			if el.tok == nil {
				e.stats.StreamFallbacks++
			}
			return false
		}
		sym, ambiguous := e.fastClassify(p, el.tok, el)
		if ambiguous {
			e.fastStall = el
			e.insert(p)
			e.stats.StreamFallbacks++
			return false
		}
		if !e.tickIter(budget) { // the resolve iteration
			e.insert(p)
			return true
		}
		for {
			act := e.lang.Table.Actions[p.stack.state][sym]
			switch act.Kind {
			case lalr.ActionReduce:
				if !e.tickIter(budget) {
					e.insert(p)
					return true
				}
				e.reduce(p, act.Target)
				continue
			case lalr.ActionShift:
				if !e.tickIter(budget) {
					e.insert(p)
					return true
				}
				e.stats.Shifts++
				if !e.lang.IsLayout(sym) {
					p.stack = e.pushNode(act.Target, sym, el.leafNode(&e.sc.ab), p.stack)
				} else {
					p.stack = e.pushNode(act.Target, sym, nil, p.stack)
				}
				// Advance. At the top level's tail, prefer re-entering the
				// cursor gear when the next chunk is a run; otherwise
				// materialize (a conditional or EOF) and keep stepping.
				if el.next == nil && el.up == nil && el == st.tail {
					if c, ok := st.peek(); ok && c.Run != nil {
						st.take()
						st.run, st.runIdx = c.Run, 0
						p.el = nil
						break
					}
				}
				nxt := e.after(el)
				if nxt == nil {
					// Past the materialized EOF; nothing left.
					e.freeSub(p)
					return false
				}
				p.el = nxt
			default:
				if !e.tickIter(budget) {
					e.insert(p)
					return true
				}
				e.parseError(head{cond: p.c, el: el, sym: sym})
				e.freeSub(p)
				return false
			}
			break
		}
	}
}
