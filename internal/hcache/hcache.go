// Package hcache is the cross-unit header cache: it shares the work of
// lexing and preprocessing headers between compilation units processed by
// the parallel harness, without violating the one-condition-space-per-unit
// isolation the worker pool relies on.
//
// SuperC's hoisting design makes a header's preprocessed output a pure
// function of its bytes plus the macro state it observes, which yields two
// cache levels:
//
//   - Level 1 caches the macro-independent work — the lexed token stream,
//     logical-line segmentation, and include-guard detection — keyed by
//     content hash alone. Tokens are immutable after lexing, so entries are
//     shared read-only across units and workers.
//
//   - Level 2 memoizes full header preprocessing, keyed by (content hash,
//     configuration) with a fingerprint of the macro state the header
//     observed — its interaction set. The preprocessor records exactly
//     which macro names a header reads, defines, or undefines while
//     processing it; a later unit may replay the cached result only when
//     its incoming state restricted to that set matches. Guard-protected
//     headers interact only with their guard macro and the names they
//     define, so their fingerprints degenerate to cheap defined/undefined
//     checks and hot system headers hit almost always.
//
// The cache stores conditions as space-independent cond.Formula DAGs and an
// opaque payload the preprocessor materializes into each unit's own space
// (package preprocessor imports this package, not vice versa). Fingerprint
// signatures are canonicalized through a shared Canon so that units with
// different BDD variable orders produce comparable fingerprints.
//
// All operations are safe for concurrent use. Both levels are bounded by
// LRU eviction, so the cache cannot grow without limit on large corpora,
// and stale entries (a header edited between runs changes its content hash
// and stops being reachable) age out the same way.
package hcache

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"strconv"
	"sync"

	"repro/internal/cond"
	"repro/internal/stats"
	"repro/internal/token"
)

// Hash returns the content hash used for cache keys (hex sha256).
func Hash(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// LexEntry is one Level-1 result: the pure, macro-independent part of
// processing a file. Everything in it is immutable and shared read-only
// across units.
type LexEntry struct {
	Lines [][]token.Token // logical lines (newlines removed), views of one lexed array
	Guard string          // include-guard macro name, "" if none
	Bytes int             // source size, for the bytes-saved accounting
}

// KV is one fingerprint component: the state signature Sig observed for Key
// (a macro name or other piece of preprocessor state) when the entry was
// recorded, in first-touch order.
type KV struct {
	Key, Sig string
}

// Dep is a file the recorded processing (a Level-2 entry, or a whole unit's
// read set) read: its result is valid only while the file still hashes to
// Hash.
type Dep struct {
	Path, Hash string
}

// Probe is a file-existence check the recorded processing performed during
// include resolution: its result is valid only while the outcome holds (a
// header appearing earlier on the include path must invalidate entries that
// resolved past its absence).
type Probe struct {
	Path   string
	Exists bool
}

// FS is the file access a Memo reads through; preprocessor.FileSystem
// satisfies it.
type FS interface {
	ReadFile(path string) ([]byte, error)
	Exists(path string) bool
}

// Memo checks recorded read sets against an FS, reading and hashing each
// path, and probing each existence, at most once. It assumes the files do
// not change while it lives, so it is scoped to one unit or one request. It
// is safe for concurrent use: concurrent askers of one path wait for the
// one read.
type Memo struct {
	fs             FS
	mu             sync.Mutex
	hashes, probes map[string]*memoSlot
}

type memoSlot struct {
	once sync.Once
	hash string
	ok   bool
}

// NewMemo returns an empty memo over fs.
func NewMemo(fs FS) *Memo {
	return &Memo{fs: fs, hashes: make(map[string]*memoSlot), probes: make(map[string]*memoSlot)}
}

func (m *Memo) slot(table map[string]*memoSlot, path string) *memoSlot {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := table[path]
	if s == nil {
		s = new(memoSlot)
		table[path] = s
	}
	return s
}

// Holds reports whether a recorded read set still holds: every dep hashes
// to its recorded hash and every probe has its recorded outcome. It is the
// one check behind Level-2 replay and superd's stored link facts.
func (m *Memo) Holds(deps []Dep, probes []Probe) bool {
	for _, d := range deps {
		if h, ok := m.hash(d.Path); !ok || h != d.Hash {
			return false
		}
	}
	for _, pr := range probes {
		if m.exists(pr.Path) != pr.Exists {
			return false
		}
	}
	return true
}

// hash returns path's content hash; ok is false when it cannot be read.
func (m *Memo) hash(path string) (string, bool) {
	s := m.slot(m.hashes, path)
	s.once.Do(func() {
		if src, err := m.fs.ReadFile(path); err == nil {
			s.hash, s.ok = Hash(src), true
		}
	})
	return s.hash, s.ok
}

func (m *Memo) exists(path string) bool {
	s := m.slot(m.probes, path)
	s.once.Do(func() { s.ok = m.fs.Exists(path) })
	return s.ok
}

// Entry is one Level-2 result: a fully preprocessed header under a recorded
// macro-state fingerprint. The payload is opaque to this package; the
// preprocessor stores its exported segment forest, macro-table operations,
// diagnostics, and statistics delta there. Entries are immutable once
// stored.
type Entry struct {
	Fingerprint []KV
	Deps        []Dep
	Probes      []Probe
	// RelIncludeDepth is the deepest include nesting the recording reached,
	// relative to the header itself; replay at depth d is valid only while
	// d + RelIncludeDepth stays under the preprocessor's include limit.
	RelIncludeDepth int
	Bytes           int // source bytes replay avoids re-preprocessing
	Payload         any
	// Portable reports that every fingerprint signature is process
	// independent (no per-process canonical condition ids), so the entry may
	// be persisted and replayed by a different process. The recorder sets it;
	// only portable entries reach the backing store.
	Portable bool

	key  string        // owning cache key, for eviction bookkeeping
	elem *list.Element // position in the cache's LRU list
}

// PayloadCodec serializes the opaque Level-2 payload for a durable backing
// store. The preprocessor (which owns the payload representation) provides
// the implementation; see preprocessor.PayloadCodec.
type PayloadCodec interface {
	EncodePayload(any) ([]byte, error)
	DecodePayload([]byte) (any, error)
}

// Backing is an optional durable layer beneath the in-memory cache: misses
// consult it, stores write through to it. Implementations must be safe for
// concurrent use; Load/Save are called outside the cache's lock. The
// canonical implementation is store.HeaderBacking, which persists entries to
// the content-addressed artifact store.
type Backing interface {
	// LoadLex returns the persisted Level-1 entry for a cache key, if any.
	LoadLex(key string) (*LexEntry, bool)
	// SaveLex persists a Level-1 entry (best-effort).
	SaveLex(key string, e *LexEntry)
	// LoadEntries returns every persisted Level-2 entry recorded under key.
	LoadEntries(key string) []*Entry
	// SaveEntry persists one portable Level-2 entry (best-effort).
	SaveEntry(key string, e *Entry)
}

// Snapshot is a point-in-time copy of the cache's counters.
type Snapshot struct {
	LexHits, LexMisses       int64
	HeaderHits, HeaderMisses int64
	BytesSaved               int64 // source bytes not re-preprocessed thanks to Level-2 hits
	Evictions                int64 // entries dropped by either level's LRU bound
	LexEntries               int64 // current Level-1 population
	HeaderEntries            int64 // current Level-2 population
}

// Fields names the Snapshot counters for the metrics registry: harness run
// deltas and superd's lifetime totals render these names.
var Fields = stats.Fields[Snapshot]{
	stats.NewField("hcache_header_hits", stats.KindCounter, "Level-2 preprocessed-header replays.", func(s *Snapshot) int64 { return s.HeaderHits }),
	stats.NewField("hcache_header_misses", stats.KindCounter, "Level-2 header lookups that found no replayable entry.", func(s *Snapshot) int64 { return s.HeaderMisses }),
	stats.NewField("hcache_lex_hits", stats.KindCounter, "Level-1 lexed-token-stream hits.", func(s *Snapshot) int64 { return s.LexHits }),
	stats.NewField("hcache_lex_misses", stats.KindCounter, "Level-1 lexed-token-stream misses.", func(s *Snapshot) int64 { return s.LexMisses }),
	stats.NewField("hcache_bytes_saved", stats.KindCounter, "Source bytes not re-preprocessed thanks to Level-2 hits.", func(s *Snapshot) int64 { return s.BytesSaved }),
	stats.NewField("hcache_evictions", stats.KindCounter, "Entries dropped by either level's LRU bound.", func(s *Snapshot) int64 { return s.Evictions }),
}

// Options bounds a Cache.
type Options struct {
	MaxLexEntries    int // Level-1 bound; 0 means DefaultMaxLexEntries
	MaxHeaderEntries int // Level-2 bound; 0 means DefaultMaxHeaderEntries
	// Backing, when non-nil, is the durable layer beneath the in-memory
	// cache: lookups that miss in memory consult it, and stores write
	// through to it (Level-2 only for portable entries). In-memory eviction
	// never touches the backing store; its own size bound governs it.
	Backing Backing
}

// Default capacity bounds. Sized for corpora of a few thousand headers; at
// ~one entry per (header, macro-state) pair the memory cost is roughly the
// corpus's token streams once over.
const (
	DefaultMaxLexEntries    = 8192
	DefaultMaxHeaderEntries = 8192
)

// Cache is a concurrency-safe two-level header cache shared by every worker
// of a harness run (and across runs of the same process).
type Cache struct {
	canon   *Canon
	backing Backing

	mu        sync.Mutex
	lex       map[string]*lexSlot
	lexLRU    *list.List // of *lexSlot, front = most recent
	hdr       map[string][]*Entry
	hdrLRU    *list.List      // of *Entry, front = most recent
	consulted map[string]bool // Level-2 keys already loaded from the backing
	maxLex    int
	maxHdr    int
	lexHits, lexMisses, hdrHits, hdrMisses,
	bytesSaved, evictions stats.Counter
}

type lexSlot struct {
	key   string
	entry *LexEntry
	elem  *list.Element
}

// New returns an empty cache.
func New(opts Options) *Cache {
	if opts.MaxLexEntries <= 0 {
		opts.MaxLexEntries = DefaultMaxLexEntries
	}
	if opts.MaxHeaderEntries <= 0 {
		opts.MaxHeaderEntries = DefaultMaxHeaderEntries
	}
	return &Cache{
		canon:     NewCanon(),
		backing:   opts.Backing,
		lex:       make(map[string]*lexSlot),
		lexLRU:    list.New(),
		hdr:       make(map[string][]*Entry),
		hdrLRU:    list.New(),
		consulted: make(map[string]bool),
		maxLex:    opts.MaxLexEntries,
		maxHdr:    opts.MaxHeaderEntries,
	}
}

// Canon exposes the cache's shared fingerprint canonicalizer.
func (c *Cache) Canon() *Canon { return c.canon }

// Backing returns the durable layer beneath the cache (nil when none).
func (c *Cache) Backing() Backing { return c.backing }

// LookupLex returns the Level-1 entry for a content hash. An in-memory miss
// consults the backing store, installing what it finds.
func (c *Cache) LookupLex(hash string) (*LexEntry, bool) {
	c.mu.Lock()
	slot, ok := c.lex[hash]
	if ok {
		c.lexLRU.MoveToFront(slot.elem)
		c.mu.Unlock()
		c.lexHits.Inc()
		return slot.entry, true
	}
	c.mu.Unlock()
	if c.backing != nil {
		if e, ok := c.backing.LoadLex(hash); ok {
			c.installLex(hash, e)
			c.lexHits.Inc()
			return e, true
		}
	}
	c.lexMisses.Inc()
	return nil, false
}

// StoreLex records a Level-1 entry, evicting the least recently used entry
// when over capacity, and writes through to the backing store.
func (c *Cache) StoreLex(hash string, e *LexEntry) {
	if c.installLex(hash, e) && c.backing != nil {
		c.backing.SaveLex(hash, e)
	}
}

// installLex adds a Level-1 entry to the in-memory level only, reporting
// whether it was new.
func (c *Cache) installLex(hash string, e *LexEntry) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.lex[hash]; ok {
		return false // concurrent producer won the race; results are identical
	}
	slot := &lexSlot{key: hash, entry: e}
	slot.elem = c.lexLRU.PushFront(slot)
	c.lex[hash] = slot
	for c.lexLRU.Len() > c.maxLex {
		old := c.lexLRU.Remove(c.lexLRU.Back()).(*lexSlot)
		delete(c.lex, old.key)
		c.evictions.Inc()
	}
	return true
}

// Lookup scans the Level-2 entries recorded under key (one per distinct
// incoming macro state) and returns the first for which match reports the
// unit's current state compatible — fingerprint equal and dependencies
// still valid. match runs outside the cache lock: it reads the caller's
// macro table and file system, which must not serialize the worker pool.
func (c *Cache) Lookup(key string, match func(*Entry) bool) (*Entry, bool) {
	c.mu.Lock()
	cands := c.hdr[key]
	snapshot := make([]*Entry, len(cands))
	copy(snapshot, cands)
	c.mu.Unlock()

	if e, ok := c.matchOne(snapshot, match); ok {
		return e, true
	}
	// In-memory miss: consult the backing store once per key per process
	// (write-through keeps the in-memory level a superset afterwards).
	if loaded := c.consultBacking(key); len(loaded) > 0 {
		if e, ok := c.matchOne(loaded, match); ok {
			return e, true
		}
	}
	c.hdrMisses.Inc()
	return nil, false
}

// matchOne runs match over candidates (outside the lock) and books the hit.
func (c *Cache) matchOne(cands []*Entry, match func(*Entry) bool) (*Entry, bool) {
	for _, e := range cands {
		if match(e) {
			c.mu.Lock()
			if e.elem != nil { // not evicted while matching
				c.hdrLRU.MoveToFront(e.elem)
			}
			c.mu.Unlock()
			c.hdrHits.Inc()
			c.bytesSaved.Add(int64(e.Bytes))
			return e, true
		}
	}
	return nil, false
}

// consultBacking loads the backing store's Level-2 entries for key on the
// first in-memory miss of that key and installs them. Returns the entries it
// installed (nil when the backing was absent or already consulted).
func (c *Cache) consultBacking(key string) []*Entry {
	if c.backing == nil {
		return nil
	}
	c.mu.Lock()
	done := c.consulted[key]
	c.consulted[key] = true
	c.mu.Unlock()
	if done {
		return nil
	}
	loaded := c.backing.LoadEntries(key)
	for _, e := range loaded {
		c.install(key, e)
	}
	return loaded
}

// Store records a Level-2 entry under key, keeping earlier entries for the
// same key (they memoize the header under different incoming macro states,
// e.g. different include orders). The Level-2 LRU bound evicts at entry
// granularity across all keys. Portable entries write through to the
// backing store.
func (c *Cache) Store(key string, e *Entry) {
	c.install(key, e)
	if c.backing != nil && e.Portable {
		c.backing.SaveEntry(key, e)
	}
}

// install adds a Level-2 entry to the in-memory level only.
func (c *Cache) install(key string, e *Entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e.key = key
	e.elem = c.hdrLRU.PushFront(e)
	c.hdr[key] = append(c.hdr[key], e)
	for c.hdrLRU.Len() > c.maxHdr {
		old := c.hdrLRU.Remove(c.hdrLRU.Back()).(*Entry)
		old.elem = nil
		list := c.hdr[old.key]
		for i, cand := range list {
			if cand == old {
				list = append(list[:i], list[i+1:]...)
				break
			}
		}
		if len(list) == 0 {
			delete(c.hdr, old.key)
		} else {
			c.hdr[old.key] = list
		}
		c.evictions.Inc()
	}
}

// Stats returns a snapshot of the cache's counters.
func (c *Cache) Stats() Snapshot {
	c.mu.Lock()
	lexN, hdrN := int64(c.lexLRU.Len()), int64(c.hdrLRU.Len())
	c.mu.Unlock()
	return Snapshot{
		LexHits:       c.lexHits.Load(),
		LexMisses:     c.lexMisses.Load(),
		HeaderHits:    c.hdrHits.Load(),
		HeaderMisses:  c.hdrMisses.Load(),
		BytesSaved:    c.bytesSaved.Load(),
		Evictions:     c.evictions.Load(),
		LexEntries:    lexN,
		HeaderEntries: hdrN,
	}
}

// Canon canonicalizes presence conditions across unit spaces. Each unit
// builds its BDD variables in first-use order, so equal boolean functions
// have different node ids in different units; importing their exported
// formulas into one shared, mutex-guarded ModeBDD space assigns every
// function a process-wide canonical id, which is what fingerprint
// signatures embed.
type Canon struct {
	mu sync.Mutex
	s  *cond.Space
}

// NewCanon returns an empty canonicalizer.
func NewCanon() *Canon {
	return &Canon{s: cond.NewSpace(cond.ModeBDD)}
}

// ID returns the canonical id of the boolean function f denotes. Formulas
// denoting equal functions map to equal ids regardless of which space they
// were exported from.
func (c *Canon) ID(f *cond.Formula) string {
	// Constants dominate real fingerprints (macro-table entries under the
	// True condition); resolve them without touching the shared space.
	switch f.Op {
	case cond.FTrue:
		return "1"
	case cond.FFalse:
		return "0"
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	id, _ := c.s.NodeID(c.s.Import(f))
	return strconv.FormatUint(uint64(id), 10)
}
