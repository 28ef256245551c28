package preprocessor

// This file wires the cross-unit header cache (package hcache) into the
// preprocessor. The contract is memoization-with-traces: while a header is
// processed at top level (condition True, conditional depth zero), a
// recorder captures
//
//   - the interaction set: every macro name (and per-file guard registration)
//     the header reads or writes, with the state observed at FIRST touch —
//     because every write is preceded by a touch, first-touch state is
//     exactly the incoming state the result depends on;
//   - the trace: the macro-table mutations (define/undefine/guard marks) and
//     per-file bookkeeping the header performed, as space-independent ops;
//   - the files read (with content hashes) and existence probes made during
//     include resolution, so edits to any file involved invalidate the entry.
//
// The unit keeps the same deps and probes, never poisoned, as its read set
// (Unit.Deps, Unit.Probes): superd re-checks it, through the same
// hcache.Memo.Holds, before serving facts stored for the unit.
//
// A later unit replays the entry only when its incoming state restricted to
// the interaction set matches the recorded fingerprint and every dep/probe
// still holds; replaying imports the stored segment forest and ops into that
// unit's own condition space, preserving the harness's
// one-condition-space-per-unit isolation.
//
// Results that depend on state outside the fingerprint poison the recording:
// __COUNTER__ uses and include-depth-limit errors mark every active recorder
// poisoned, and poisoned recordings are simply not stored.

import (
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/cond"
	"repro/internal/guard/faultinject"
	"repro/internal/hcache"
	"repro/internal/token"
)

// replayOp is one recorded preprocessor side effect, with conditions in
// space-independent form so it can replay into any unit's space.
type replayOp struct {
	kind  opKind
	name  string        // macro name (define/undef/markGuard)
	def   *MacroDef     // define only; immutable, shared across units
	cond  *cond.Formula // define/undef only
	path  string        // setGuardOf/timesInc only
	guard string        // setGuardOf only
}

type opKind uint8

const (
	opDefine opKind = iota
	opUndef
	opMarkGuard
	opGuardOf
	opTimesInc
)

// headerPayload is the opaque payload a Level-2 cache entry carries: the
// header's exported output forest, its side-effect trace, and the
// diagnostics and statistics it contributed.
type headerPayload struct {
	segs  []xSeg
	ops   []replayOp
	diags []Diagnostic
	stats UnitStats
}

// xSeg / xCond / xBranch mirror Segment / Conditional / Branch with branch
// conditions exported to formulas. Tokens are immutable and shared by
// pointer with the recording unit's own output.
type xSeg struct {
	tok *token.Token
	cnd *xCond
}

type xCond struct {
	branches []xBranch
}

type xBranch struct {
	cond *cond.Formula
	segs []xSeg
}

func exportSegs(ex *cond.Exporter, segs []Segment) []xSeg {
	out := make([]xSeg, len(segs))
	for i, s := range segs {
		if s.IsToken() {
			out[i] = xSeg{tok: s.Tok}
			continue
		}
		xc := &xCond{branches: make([]xBranch, len(s.Cond.Branches))}
		for j, br := range s.Cond.Branches {
			xc.branches[j] = xBranch{cond: ex.Export(br.Cond), segs: exportSegs(ex, br.Segs)}
		}
		out[i] = xSeg{cnd: xc}
	}
	return out
}

func importSegs(im *cond.Importer, xs []xSeg) []Segment {
	out := make([]Segment, len(xs))
	for i, x := range xs {
		if x.tok != nil {
			out[i] = Segment{Tok: x.tok}
			continue
		}
		c := &Conditional{Branches: make([]Branch, len(x.cnd.branches))}
		for j, br := range x.cnd.branches {
			c.Branches[j] = Branch{Cond: im.Import(br.cond), Segs: importSegs(im, br.segs)}
		}
		out[i] = Segment{Cond: c}
	}
	return out
}

// headerRec is one active recording. Recordings nest (a header including a
// cache-miss header starts an inner recording); observations dispatch to
// every active recorder.
type headerRec struct {
	keys      map[string]bool // fingerprint keys already captured
	fp        []hcache.KV     // fingerprint in first-touch order
	ops       []replayOp
	deps      []hcache.Dep
	probes    []hcache.Probe
	diagStart int
	prevStats *UnitStats // enclosing stats; p.stats holds the delta meanwhile
	startInc  int        // include depth at recording start
	maxRelInc int        // deepest relative include nesting reached
	poisoned  bool
	// portable stays true while every captured fingerprint signature is
	// process independent (built only from constant-condition canonical ids
	// and token-level definition signatures). Non-portable entries embed
	// per-process BDD node ids and must never leave this process — see
	// hcache.Entry.Portable.
	portable bool
}

// recording reports whether at least one header recording is active.
func (p *Preprocessor) recording() bool { return len(p.recorders) > 0 }

// cacheObserved reports whether table/guard observations need dispatching.
// The observer stays attached whenever the cache is enabled; dispatch is a
// no-op with no active recorders.

// touchMacro implements tableObserver: fingerprint the name's pre-operation
// state in every recorder that has not seen it yet.
func (p *Preprocessor) touchMacro(name string) { p.touchKey("m:" + name) }

// touchKey captures the current signature of a fingerprint key ("m:<name>"
// for macro state, "g:<path>" for per-file guard registration) in every
// active recorder on first touch. Writes always touch before mutating, so a
// recorder that has not seen the key observes the state the key had when
// that recording began.
func (p *Preprocessor) touchKey(key string) {
	if !p.recording() {
		return
	}
	sig := ""
	portable := true
	computed := false
	for _, r := range p.recorders {
		if r.poisoned || r.keys[key] {
			continue
		}
		if !computed {
			sig, portable = p.sigOfTracked(key)
			computed = true
		}
		r.keys[key] = true
		r.fp = append(r.fp, hcache.KV{Key: key, Sig: sig})
		if !portable {
			r.portable = false
		}
	}
}

// sigOf returns the current canonical signature of a fingerprint key.
func (p *Preprocessor) sigOf(key string) string {
	sig, _ := p.sigOfTracked(key)
	return sig
}

// sigOfTracked is sigOf plus portability: portable is false when the
// signature embeds the canonical id of a non-constant condition, which is a
// per-process BDD node id and therefore meaningless to other processes.
// Equal signature strings always have equal portability, so replaying a
// persisted entry can trust a string match.
func (p *Preprocessor) sigOfTracked(key string) (sig string, portable bool) {
	body := key[2:]
	if strings.HasPrefix(key, "m:") {
		portable = true
		canon := func(c cond.Cond) string {
			f := p.exporter.Export(c)
			if f.Op != cond.FTrue && f.Op != cond.FFalse {
				portable = false
			}
			return p.hcache.Canon().ID(f)
		}
		return p.macros.StateSig(body, canon), portable
	}
	// "g:<path>": the file's registered guard macro, or absence.
	if g, ok := p.guardOf[body]; ok {
		return "=" + g, true
	}
	return "", true
}

// canonOf maps a condition of this unit's space to a process-wide canonical
// id via the shared cache canonicalizer.
func (p *Preprocessor) canonOf(c cond.Cond) string {
	return p.hcache.Canon().ID(p.exporter.Export(c))
}

func (p *Preprocessor) noteDefine(name string, def *MacroDef, c cond.Cond) {
	if !p.recording() {
		return
	}
	p.appendOp(replayOp{kind: opDefine, name: name, def: def, cond: p.exporter.Export(c)})
}

func (p *Preprocessor) noteUndefine(name string, c cond.Cond) {
	if !p.recording() {
		return
	}
	p.appendOp(replayOp{kind: opUndef, name: name, cond: p.exporter.Export(c)})
}

func (p *Preprocessor) noteMarkGuard(name string) {
	if !p.recording() {
		return
	}
	p.appendOp(replayOp{kind: opMarkGuard, name: name})
}

func (p *Preprocessor) appendOp(op replayOp) {
	for _, r := range p.recorders {
		if !r.poisoned {
			r.ops = append(r.ops, op)
		}
	}
}

// setGuardOf registers a file's include-guard macro, observing the write.
func (p *Preprocessor) setGuardOf(path, guard string) {
	p.touchKey("g:" + path)
	if p.recording() {
		p.appendOp(replayOp{kind: opGuardOf, path: path, guard: guard})
	}
	p.guardOf[path] = guard
}

// readGuardOf reads a file's registered guard macro, observing the read —
// whether or not the file has one yet, since absence is state too.
func (p *Preprocessor) readGuardOf(path string) (string, bool) {
	p.touchKey("g:" + path)
	g, ok := p.guardOf[path]
	return g, ok
}

// bumpTimesInc counts an inclusion, recording it so replays keep per-unit
// inclusion counts (and the guard-skip stats derived from them) coherent.
// The ReincludedHeaders increment lives here, not at the include site:
// timesInc is per-unit state the fingerprint deliberately ignores, so the
// counter must be re-derived against the live map when an opTimesInc is
// replayed (the record-time count in the stored stats delta is zeroed).
func (p *Preprocessor) bumpTimesInc(path string) {
	if p.recording() {
		p.appendOp(replayOp{kind: opTimesInc, path: path})
	}
	if p.timesInc[path] > 0 {
		p.stats.ReincludedHeaders++
	}
	p.timesInc[path]++
}

// noteDep records a file read (path, content hash) in the unit's read set
// and in every active recorder.
func (p *Preprocessor) noteDep(path, hash string) {
	p.deps = append(p.deps, hcache.Dep{Path: path, Hash: hash})
	for _, r := range p.recorders {
		if !r.poisoned {
			r.deps = append(r.deps, hcache.Dep{Path: path, Hash: hash})
		}
	}
}

// noteProbe records an include-resolution existence check in the unit's
// read set and in every active recorder.
func (p *Preprocessor) noteProbe(path string, exists bool) {
	p.probes = append(p.probes, hcache.Probe{Path: path, Exists: exists})
	for _, r := range p.recorders {
		if !r.poisoned {
			r.probes = append(r.probes, hcache.Probe{Path: path, Exists: exists})
		}
	}
}

// sortedSet stably sorts a read-set list by path, in place, and drops
// repeats, so a unit's read set is deterministic however often it touched
// each path.
func sortedSet[T comparable](xs []T, path func(T) string) []T {
	slices.SortStableFunc(xs, func(a, b T) int { return strings.Compare(path(a), path(b)) })
	return slices.Compact(xs)
}

// noteIncludeDepth tracks the deepest nesting each recording reaches,
// relative to its own start, after includeDepth was incremented.
func (p *Preprocessor) noteIncludeDepth() {
	for _, r := range p.recorders {
		if d := p.includeDepth - r.startInc; d > r.maxRelInc {
			r.maxRelInc = d
		}
	}
}

// poisonRecorders marks every active recording unstorable. Used when a
// result depends on state the fingerprint cannot capture (__COUNTER__, the
// absolute include-depth limit).
func (p *Preprocessor) poisonRecorders() {
	for _, r := range p.recorders {
		r.poisoned = true
	}
}

// probeFS wraps the unit's file system so existence checks made during
// include resolution are recorded as probes.
type probeFS struct{ p *Preprocessor }

func (f probeFS) ReadFile(path string) ([]byte, error) { return f.p.fs.ReadFile(path) }

func (f probeFS) Exists(path string) bool {
	ok := f.p.fs.Exists(path)
	f.p.noteProbe(path, ok)
	return ok
}

// resolveFS returns the file system include resolution should probe
// through: with the header cache on, every probe joins the read set.
func (p *Preprocessor) resolveFS() FileSystem {
	if p.hcache != nil {
		return probeFS{p}
	}
	return p.fs
}

// beginRecording pushes a recorder and swaps in a fresh stats block so the
// recording accumulates its own delta.
func (p *Preprocessor) beginRecording() *headerRec {
	r := &headerRec{
		keys:      make(map[string]bool),
		diagStart: len(p.diags),
		prevStats: p.stats,
		startInc:  p.includeDepth,
		portable:  true,
	}
	p.stats = &UnitStats{}
	p.recorders = append(p.recorders, r)
	return r
}

// endRecording pops the recorder, folds the stats delta back into the
// enclosing block, and stores the entry unless processing failed or the
// recording was poisoned.
func (p *Preprocessor) endRecording(r *headerRec, key string, segs []Segment, failed bool) {
	p.recorders = p.recorders[:len(p.recorders)-1]
	delta := *p.stats
	p.stats = r.prevStats
	p.stats.Add(delta)
	if failed || r.poisoned {
		return
	}
	// Replays add the stored stats delta to their unit, but lexing time is
	// wall-clock actually spent, not semantic output: zero it so Level-2 hits
	// report their true (near-zero) lexing cost. ReincludedHeaders depends on
	// the replaying unit's own inclusion counts, so it is re-derived from the
	// opTimesInc trace instead (see bumpTimesInc).
	delta.LexTime = 0
	delta.ReincludedHeaders = 0
	pl := &headerPayload{
		segs:  exportSegs(p.exporter, segs),
		ops:   r.ops,
		diags: append([]Diagnostic(nil), p.diags[r.diagStart:]...),
		stats: delta,
	}
	p.hcache.Store(key, &hcache.Entry{
		Fingerprint:     r.fp,
		Deps:            r.deps,
		Probes:          r.probes,
		RelIncludeDepth: r.maxRelInc,
		Bytes:           delta.Bytes,
		Payload:         pl,
		Portable:        r.portable,
	})
}

// tryReplay looks for a Level-2 entry whose recorded fingerprint, deps, and
// probes all hold in this unit's current state and, if found, replays it:
// imports the segment forest into this unit's space, reapplies the
// side-effect trace through the observed table methods (so enclosing
// recordings capture it), and propagates the entry's observations into any
// enclosing recorders.
func (p *Preprocessor) tryReplay(key string) ([]Segment, bool) {
	sigMemo := make(map[string]string)
	match := func(e *hcache.Entry) bool {
		if p.includeDepth+e.RelIncludeDepth > p.maxInclude {
			return false
		}
		for _, kv := range e.Fingerprint {
			sig, ok := sigMemo[kv.Key]
			if !ok {
				sig = p.sigOf(kv.Key)
				sigMemo[kv.Key] = sig
			}
			if sig != kv.Sig {
				return false
			}
		}
		return p.files.Holds(e.Deps, e.Probes)
	}
	e, ok := p.hcache.Lookup(key, match)
	if !ok {
		return nil, false
	}
	// Propagate the entry's observations into enclosing recorders: what the
	// recorded processing touched, this unit's processing now also depends
	// on. Fingerprint keys are touched before ops replay so enclosing
	// recorders capture pre-replay state.
	for _, kv := range e.Fingerprint {
		p.touchKey(kv.Key)
	}
	for _, d := range e.Deps {
		p.noteDep(d.Path, d.Hash)
	}
	for _, pr := range e.Probes {
		p.noteProbe(pr.Path, pr.Exists)
	}
	for _, r := range p.recorders {
		if d := (p.includeDepth - r.startInc) + e.RelIncludeDepth; d > r.maxRelInc {
			r.maxRelInc = d
		}
	}
	pl := e.Payload.(*headerPayload)
	for _, op := range pl.ops {
		p.applyOp(op)
	}
	p.diags = append(p.diags, pl.diags...)
	p.stats.Add(pl.stats)
	return importSegs(p.importer, pl.segs), true
}

// applyOp replays one recorded side effect into this unit. Ops flow through
// the same observed entry points as organic processing, so nested recordings
// and stats stay coherent.
func (p *Preprocessor) applyOp(op replayOp) {
	switch op.kind {
	case opDefine:
		p.macros.Define(op.name, op.def, p.importer.Import(op.cond))
	case opUndef:
		p.macros.Undefine(op.name, p.importer.Import(op.cond))
	case opMarkGuard:
		p.macros.MarkGuard(op.name)
	case opGuardOf:
		p.setGuardOf(op.path, op.guard)
	case opTimesInc:
		p.bumpTimesInc(op.path)
	}
}

// cacheEligible reports whether an include at condition c may go through the
// Level-2 cache: only whole headers spliced at top level under the True
// condition are recorded or replayed — there the incoming macro state is the
// entire context, which is exactly what the fingerprint captures.
func (p *Preprocessor) cacheEligible(c cond.Cond) bool {
	return p.hcache != nil && p.condDepth == 0 && p.space.IsTrue(c)
}

// processFileCached is processFile with the Level-2 cache in front: on a
// fingerprint match the stored result replays; on a miss the file processes
// under a fresh recording whose result is stored for the next unit.
func (p *Preprocessor) processFileCached(path string, c cond.Cond) ([]Segment, error) {
	if !p.cacheEligible(c) {
		return p.processFile(path, c)
	}
	faultinject.At(faultinject.PointHeaderCache, p.stats.File, p.budget)
	src, err := p.fs.ReadFile(path)
	if err != nil {
		return nil, err
	}
	hash := hcache.Hash(src)
	p.noteDep(path, hash)
	key := path + "\x00" + hash + "\x00" + p.cfgKey
	if segs, ok := p.tryReplay(key); ok {
		return segs, nil
	}
	rec := p.beginRecording()
	segs, err := p.processFileSrc(path, src, hash, c)
	// A recording made under a tripped budget saw truncated expansion;
	// storing it would poison the shared cache for healthy units.
	p.endRecording(rec, key, segs, err != nil || p.budget.Tripped())
	return segs, err
}

// configKey fingerprints the preprocessor configuration that affects header
// output beyond macro state: condition-space mode, include search path,
// builtins, and the include-depth limit. Two Preprocessors sharing a cache
// with different configurations never cross-hit.
func configKey(opts Options, maxInc int) string {
	var b strings.Builder
	if opts.Space.Mode() == cond.ModeBDD {
		b.WriteString("bdd;")
	} else {
		b.WriteString("sat;")
	}
	for _, dir := range opts.IncludePaths {
		b.WriteString(dir)
		b.WriteByte(';')
	}
	names := make([]string, 0, len(DefaultBuiltins))
	for name := range DefaultBuiltins {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b.WriteString(name)
		b.WriteByte('=')
		b.WriteString(DefaultBuiltins[name])
		b.WriteByte(';')
	}
	b.WriteString(strconv.Itoa(maxInc))
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:8])
}
