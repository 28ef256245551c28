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
// While exactly one subparser is live — the overwhelmingly common state
// between conditionals — the fast path's one gear, the cursor, walks a run
// chunk's tokens in place: no forest element, no heap traffic, no merge
// bucket, just classify → reduce* → shift against the LR table. This is as
// close to flap-style fusion as the configuration-preserving setting
// allows.
//
// Whenever variability reappears — a conditional chunk, an ambiguously
// defined name, EOF — the cursor parks its subparser back in the queue and
// the classic loop takes over; the forest keeps growing chunk-at-a-time
// through Engine.after, one run token per element. When a conditional
// episode ends with a lone subparser on the run token materialized last,
// the cursor resumes the run at that token. Every cursor iteration does the
// queue loop's accounting (Engine.tick), so streaming changes no
// observable statistic; the differential suite (stream_test.go) holds
// ParseUnit to byte equality with the sequential reference, Engine.Parse
// over the unit's segment forest.

// BytesPerStreamedToken is the per-token footprint the cursor avoids:
// the materialized Segment and the forest element the reference path
// (Engine.Parse) builds for every token. Metrics use it to report bytes
// saved by streaming.
const BytesPerStreamedToken = int64(unsafe.Sizeof(element{}) + unsafe.Sizeof(preprocessor.Segment{}))

// streamState is the engine's view of an in-progress chunk stream: the
// source, the lazily built forest (tail = last top-level element), and the
// cursor's position inside the current run chunk.
type streamState struct {
	src  preprocessor.TokenSource
	fb   forestBuilder
	file string

	tail    *element // last materialized top-level element (nil: no chain)
	eofDone bool     // synthetic EOF already materialized

	// Cursor: the run being consumed in place, nil when inactive.
	run    []token.Token
	runIdx int

	// One-chunk lookahead so the cursor can continue into the next run
	// without committing a conditional chunk it must hand back.
	pend    preprocessor.Chunk
	hasPend bool

	// The run whose first token materializeNext converted to resume, its
	// remainder pending; nil once take() has moved past it.
	resume    *element
	resumeRun []token.Token
}

func (st *streamState) take() (preprocessor.Chunk, bool) {
	st.resume, st.resumeRun = nil, nil
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

// resumeAt restarts the cursor on el's run when el is the run token
// materializeNext cut last. The pending slot holds exactly that run's
// remainder, which the cursor now owns, and the abandoned element is
// un-counted: the cursor counts its token as streamed instead.
func (st *streamState) resumeAt(el *element) bool {
	if el == nil || el != st.resume {
		return false
	}
	st.run, st.runIdx = st.resumeRun, 0
	st.resume, st.resumeRun = nil, nil
	st.hasPend = false
	st.fb.tokens--
	return true
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
// the run is recorded so that a lone survivor on its first token resumes
// the cursor there (resumeAt) instead of walking a materialized run.
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
			st.resume, st.resumeRun = h, c.Run
			return h
		}
		// Empty run chunk (not produced by the writer, but legal): skip.
	}
}

// materializeRunSuffix converts the cursor's next unconsumed token into a
// fresh top-level chain and deactivates the cursor, returning the chain's
// first element; the rest of the run is pushed back as the pending chunk
// and converts lazily through materializeNext. The run is not recorded for
// resumeAt: the cursor stops on a token it cannot take (an ambiguous name)
// or on a budget trip, so the queue loop must handle that token. The
// consumed prefix gets no elements; the old chain (if any) is fully
// consumed and never linked to, so its dangling tail is unreachable.
func (st *streamState) materializeRunSuffix() *element {
	st.tail = nil
	rest := st.run[st.runIdx:]
	st.run = nil
	st.runIdx = 0
	// The cursor only runs after take()-ing a run chunk or resumeAt, both
	// of which leave the pending slot empty, and nothing refills it while
	// the cursor is active — so the remainder can be pushed back without
	// clobbering. rest is non-empty: the cursor stops on an unconsumed token.
	h, t := st.fb.convertRun(rest[:1])
	if len(rest) > 1 {
		st.pend, st.hasPend = preprocessor.Chunk{Run: rest[1:]}, true
	}
	st.link(h, t)
	return h
}

// ParseUnit parses a preprocessed unit, streaming its chunks straight into
// the LR loop. With Options.ParseWorkers > 1 and a unit of at least
// minParallelTokens tokens it first attempts the region-parallel strategy
// (parallel.go), falling back to the sequential stream whenever the unit
// does not split cleanly or the equivalence gate fails. This is the entry
// point core/harness use.
func (e *Engine) ParseUnit(u *preprocessor.Unit) *Result {
	if e.opts.ParseWorkers > 1 && u.Stats.Tokens >= minParallelTokens {
		if res, ok := e.parseParallel(u.EnsureSegments(), u.Chunks, u.File); ok {
			return res
		}
	}
	return e.parseStream(preprocessor.NewChunkSource(u.Chunks), u.File)
}

// parseStream is the sequential parse over a chunk stream. It boots the
// initial subparser directly into the cursor when the unit opens with
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
	defer func() { e.stream = nil }()
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

// fastDrain steps a lone unresolved subparser through the cursor token by
// token until variability (a conditional, an ambiguous name, EOF) or a
// budget trip hands control back to the queue loop. On entry p is popped,
// p.el is unused, and the cursor is active (st.run non-nil). On a non-trip
// return p is back in the queue or dead (parse error); on a trip (true) p
// is re-queued so degradation sees its condition.
func (e *Engine) fastDrain(p *subparser, budget *guard.Budget) (tripped bool) {
	st := e.stream
	for {
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
		sym, ambiguous := e.lang.Classify(t), false
		if sym == e.lang.Identifier {
			sym, _, ambiguous = e.resolveName(t.Text, p.depth, p.c)
		}
		if ambiguous {
			p.el = st.materializeRunSuffix()
			e.insert(p)
			e.stats.StreamFallbacks++
			return false
		}
		// One iteration resolves the token, then one per LR action, as in
		// the queue loop.
		for resolved := false; ; resolved = true {
			if !e.tick(budget, 1) {
				p.el = st.materializeRunSuffix()
				e.insert(p)
				return true
			}
			if !resolved {
				continue
			}
			act := e.lang.Table.Actions[p.stack.state][sym]
			if act.Kind == lalr.ActionReduce {
				e.reduce(p, act.Target)
				continue
			}
			if act.Kind != lalr.ActionShift {
				// Accept is impossible before the synthetic EOF; error.
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
			e.stats.Shifts++
			p.stack = e.pushNode(act.Target, sym, e.sc.ab.Leaf(*t), p.stack)
			st.runIdx++
			e.stats.TokensStreamed++
			break
		}
	}
}
