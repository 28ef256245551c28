package store

// HeaderBacking adapts the artifact store to hcache.Backing, making the
// two-level header cache durable. Level-1 entries (lexed token streams) are
// gob-encoded one artifact per content hash. Level-2 entries are grouped one
// artifact per cache key — a key's entries differ only in the incoming macro
// state they memoize, so they are read and matched together — with the
// opaque payload serialized through the preprocessor's codec
// (preprocessor.PayloadCodec). Only portable entries arrive here; decoded
// entries are portable by construction.

import (
	"bytes"
	"encoding/gob"
	"sync"

	"repro/internal/hcache"
)

// Artifact namespaces. Facts is used by the daemon for per-unit analysis
// results, Link for per-unit conditional link facts (a link.Entry: the
// unit's read set and facts, keyed by request fingerprint, build identity
// and file); the others back the header cache.
const (
	NSLex   = "hcache-lex"
	NSHdr   = "hcache-hdr"
	NSFacts = "facts"
	NSLink  = "link"
)

// maxEntriesPerKey caps how many Level-2 entries one key's artifact holds.
// Distinct incoming macro states per header are few in practice (include
// order variants); the cap bounds the read-modify-write cost.
const maxEntriesPerKey = 8

// HeaderBacking persists hcache entries in a Store.
type HeaderBacking struct {
	S     *Store
	Codec hcache.PayloadCodec

	// mu serializes Level-2 read-modify-write cycles (one artifact holds a
	// key's whole entry list).
	mu sync.Mutex
}

// NewHeaderBacking returns a backing over s using codec for Level-2
// payloads.
func NewHeaderBacking(s *Store, codec hcache.PayloadCodec) *HeaderBacking {
	return &HeaderBacking{S: s, Codec: codec}
}

// persistEntry is the wire form of one Level-2 entry.
type persistEntry struct {
	Fingerprint     []hcache.KV
	Deps            []hcache.Dep
	Probes          []hcache.Probe
	RelIncludeDepth int
	Bytes           int
	Payload         []byte
}

// LoadLex implements hcache.Backing.
func (b *HeaderBacking) LoadLex(key string) (*hcache.LexEntry, bool) {
	data, ok := b.S.Get(NSLex, key)
	if !ok {
		return nil, false
	}
	var e hcache.LexEntry
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&e); err != nil {
		b.S.Delete(NSLex, key)
		return nil, false
	}
	return &e, true
}

// SaveLex implements hcache.Backing.
func (b *HeaderBacking) SaveLex(key string, e *hcache.LexEntry) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(e); err != nil {
		return
	}
	b.S.Put(NSLex, key, buf.Bytes())
}

// LoadEntries implements hcache.Backing.
func (b *HeaderBacking) LoadEntries(key string) []*hcache.Entry {
	persisted := b.loadPersisted(key, true)
	if len(persisted) == 0 {
		return nil
	}
	out := make([]*hcache.Entry, 0, len(persisted))
	for _, pe := range persisted {
		payload, err := b.Codec.DecodePayload(pe.Payload)
		if err != nil {
			continue // version/shape drift: skip the entry, keep the rest
		}
		out = append(out, &hcache.Entry{
			Fingerprint:     pe.Fingerprint,
			Deps:            pe.Deps,
			Probes:          pe.Probes,
			RelIncludeDepth: pe.RelIncludeDepth,
			Bytes:           pe.Bytes,
			Payload:         payload,
			Portable:        true,
		})
	}
	return out
}

// SaveEntry implements hcache.Backing.
func (b *HeaderBacking) SaveEntry(key string, e *hcache.Entry) {
	payload, err := b.Codec.EncodePayload(e.Payload)
	if err != nil {
		return
	}
	ne := persistEntry{
		Fingerprint:     e.Fingerprint,
		Deps:            e.Deps,
		Probes:          e.Probes,
		RelIncludeDepth: e.RelIncludeDepth,
		Bytes:           e.Bytes,
		Payload:         payload,
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	// The read side of this read-modify-write is bookkeeping, not a cache
	// lookup, so it stays out of the hit/miss accounting.
	persisted := b.loadPersisted(key, false)
	for _, old := range persisted {
		if sameFingerprint(old.Fingerprint, ne.Fingerprint) {
			return // already persisted under this macro state
		}
	}
	persisted = append([]persistEntry{ne}, persisted...)
	if len(persisted) > maxEntriesPerKey {
		persisted = persisted[:maxEntriesPerKey]
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(persisted); err != nil {
		return
	}
	b.S.Put(NSHdr, key, buf.Bytes())
}

// loadPersisted reads a key's persisted entry list, treating decode failures
// as absence. counted selects whether the read lands in the store's hit/miss
// accounting (true for cache lookups, false for read-modify-write probes).
func (b *HeaderBacking) loadPersisted(key string, counted bool) []persistEntry {
	var data []byte
	var ok bool
	if counted {
		data, ok = b.S.Get(NSHdr, key)
	} else {
		data, ok = b.S.peek(NSHdr, key)
	}
	if !ok {
		return nil
	}
	var persisted []persistEntry
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&persisted); err != nil {
		b.S.Delete(NSHdr, key)
		return nil
	}
	return persisted
}

func sameFingerprint(a, b []hcache.KV) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// PutGob stores v gob-encoded under (ns, key); encode failures are
// swallowed like write failures.
func PutGob(s *Store, ns, key string, v any) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return
	}
	s.Put(ns, key, buf.Bytes())
}

// GetGob loads (ns, key) into v, deleting undecodable artifacts (format
// drift reads as a miss).
func GetGob(s *Store, ns, key string, v any) bool {
	data, ok := s.Get(ns, key)
	if !ok {
		return false
	}
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(v); err != nil {
		s.Delete(ns, key)
		return false
	}
	return true
}
