package preprocessor

import "repro/internal/token"

// This file is the preprocessor's output interface. The unit's top level is
// packed into Chunks as the directive machine emits it: dense token runs
// wherever the presence condition is True, and materialized Conditionals only
// where hoisting genuinely buffered content. The FMLR engine pulls chunks one
// at a time (TokenSource) and can walk a run's tokens in place, so
// True-condition tokens never pay for a Segment or a token-forest element.
//
// Chunks are immutable after creation and therefore freely replayable: a
// ChunkSource is just a cursor, and converting to the segment forest
// (SegmentsOf) points the segments into the runs without copying tokens.
// Cached lexed header streams interoperate unchanged — the header cache
// operates on files and segments below the unit's top level, and the chunk
// writer only packs at the root.

// Chunk is one streaming unit of preprocessor output: exactly one of Run
// and Cond is set. A Run is a dense slice of ordinary tokens whose presence
// condition is the enclosing (True) context; a Cond is a static conditional
// materialized in segment form.
type Chunk struct {
	Run  []token.Token
	Cond *Conditional
}

// TokenSource is the pull interface between the preprocessor and the FMLR
// engine: Next returns the next chunk of the unit, in document order, until
// the stream is exhausted.
type TokenSource interface {
	Next() (Chunk, bool)
}

// ChunkSource replays an immutable chunk slice as a TokenSource.
type ChunkSource struct {
	chunks []Chunk
	i      int
}

// NewChunkSource returns a source replaying chunks from the start.
func NewChunkSource(chunks []Chunk) *ChunkSource {
	return &ChunkSource{chunks: chunks}
}

// Next implements TokenSource.
func (s *ChunkSource) Next() (Chunk, bool) {
	if s.i >= len(s.chunks) {
		return Chunk{}, false
	}
	c := s.chunks[s.i]
	s.i++
	return c, true
}

// maxRunChunk caps a run chunk's length so the engine's per-chunk
// bookkeeping (budget polling, fallback materialization) stays bounded and
// a pathological macro expansion cannot buffer an entire unit in one run.
const maxRunChunk = 512

// chunkWriter packs root-level segments into chunks as the directive
// machine emits them. Tokens are copied by value into the current run (the
// run is the token's storage); conditionals flush the run
// and pass through as-is. A flushed run is never appended to again, so
// pointers into it stay valid.
type chunkWriter struct {
	chunks  []Chunk
	cur     []token.Token
	ntokens int // ordinary tokens across all chunks, branches included
}

func (w *chunkWriter) add(segs ...Segment) {
	for _, sg := range segs {
		if sg.IsToken() {
			if len(w.cur) >= maxRunChunk {
				w.flushRun()
			}
			w.cur = append(w.cur, *sg.Tok)
			w.ntokens++
			continue
		}
		w.flushRun()
		w.chunks = append(w.chunks, Chunk{Cond: sg.Cond})
		for _, b := range sg.Cond.Branches {
			w.ntokens += CountTokens(b.Segs)
		}
	}
}

func (w *chunkWriter) flushRun() {
	if len(w.cur) == 0 {
		w.cur = nil
		return
	}
	w.chunks = append(w.chunks, Chunk{Run: w.cur})
	w.cur = nil
}

// finish flushes the open run and returns the chunk list, non-nil even for
// an empty unit (Unit.Chunks is never nil).
func (w *chunkWriter) finish() []Chunk {
	w.flushRun()
	if w.chunks == nil {
		w.chunks = []Chunk{}
	}
	return w.chunks
}

// ChunksOf converts a segment forest into chunk form, packing top-level
// token segments into dense runs.
func ChunksOf(segs []Segment) []Chunk {
	var w chunkWriter
	w.add(segs...)
	return w.finish()
}

// SegmentsOf converts chunks into the segment forest. Token
// segments point into the chunk runs (no token copies), so the result is
// valid as long as the chunks are — which is always, since chunks are
// immutable.
func SegmentsOf(chunks []Chunk) []Segment {
	n := 0
	for _, c := range chunks {
		if c.Cond != nil {
			n++
		} else {
			n += len(c.Run)
		}
	}
	segs := make([]Segment, 0, n)
	for _, c := range chunks {
		if c.Cond != nil {
			segs = append(segs, Segment{Cond: c.Cond})
			continue
		}
		run := c.Run
		for i := range run {
			segs = append(segs, Segment{Tok: &run[i]})
		}
	}
	return segs
}

// CountChunkTokens counts ordinary tokens across the chunks, conditional
// branches included (the chunk analogue of CountTokens).
func CountChunkTokens(chunks []Chunk) int {
	n := 0
	for _, c := range chunks {
		if c.Cond != nil {
			for _, b := range c.Cond.Branches {
				n += CountTokens(b.Segs)
			}
			continue
		}
		n += len(c.Run)
	}
	return n
}

// EnsureSegments returns the unit's segment forest, materializing (and
// caching) it from Chunks on first use. Consumers that genuinely need random
// access to segments (the printer, the sequential reference parse,
// differential tests) call this; the parser itself streams.
func (u *Unit) EnsureSegments() []Segment {
	if u.segments == nil {
		u.segments = SegmentsOf(u.Chunks)
	}
	return u.segments
}
