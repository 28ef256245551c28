package hcache

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/cond"
	"repro/internal/stats"
)

func TestLexLevelLRU(t *testing.T) {
	c := New(Options{MaxLexEntries: 2})
	c.StoreLex("a", &LexEntry{Bytes: 1})
	c.StoreLex("b", &LexEntry{Bytes: 2})
	if _, ok := c.LookupLex("a"); !ok {
		t.Fatal("a should be cached")
	}
	// a is now most recent; adding c evicts b.
	c.StoreLex("c", &LexEntry{Bytes: 3})
	if _, ok := c.LookupLex("b"); ok {
		t.Error("b should have been evicted")
	}
	if _, ok := c.LookupLex("a"); !ok {
		t.Error("a should have survived (recently used)")
	}
	s := c.Stats()
	if s.Evictions != 1 || s.LexEntries != 2 {
		t.Errorf("evictions=%d entries=%d", s.Evictions, s.LexEntries)
	}
}

func TestHeaderLevelMultipleEntriesPerKey(t *testing.T) {
	c := New(Options{})
	c.Store("k", &Entry{Fingerprint: []KV{{Key: "m:A", Sig: "1"}}, Payload: "one"})
	c.Store("k", &Entry{Fingerprint: []KV{{Key: "m:A", Sig: "2"}}, Payload: "two"})
	e, ok := c.Lookup("k", func(e *Entry) bool { return e.Fingerprint[0].Sig == "2" })
	if !ok || e.Payload != "two" {
		t.Fatalf("got %v, %v", e, ok)
	}
	if _, ok := c.Lookup("k", func(e *Entry) bool { return false }); ok {
		t.Error("no candidate should match")
	}
	s := c.Stats()
	if s.HeaderHits != 1 || s.HeaderMisses != 1 || s.HeaderEntries != 2 {
		t.Errorf("hits=%d misses=%d entries=%d", s.HeaderHits, s.HeaderMisses, s.HeaderEntries)
	}
}

func TestHeaderLevelEvictionBound(t *testing.T) {
	c := New(Options{MaxHeaderEntries: 3})
	for i := 0; i < 10; i++ {
		c.Store(fmt.Sprintf("k%d", i), &Entry{Bytes: i})
	}
	s := c.Stats()
	if s.HeaderEntries != 3 {
		t.Errorf("entries=%d, want bound 3", s.HeaderEntries)
	}
	if s.Evictions != 7 {
		t.Errorf("evictions=%d, want 7", s.Evictions)
	}
	// Oldest keys are gone, newest are present.
	if _, ok := c.Lookup("k0", func(*Entry) bool { return true }); ok {
		t.Error("k0 should be evicted")
	}
	if _, ok := c.Lookup("k9", func(*Entry) bool { return true }); !ok {
		t.Error("k9 should be present")
	}
}

func TestBytesSavedCounting(t *testing.T) {
	c := New(Options{})
	c.Store("k", &Entry{Bytes: 100})
	c.Lookup("k", func(*Entry) bool { return true })
	c.Lookup("k", func(*Entry) bool { return true })
	if s := c.Stats(); s.BytesSaved != 200 {
		t.Errorf("BytesSaved=%d, want 200", s.BytesSaved)
	}
}

func TestSnapshotSub(t *testing.T) {
	reg := stats.NewRegistry(Fields.Descs())
	a := Snapshot{LexHits: 5, HeaderHits: 3, BytesSaved: 100, LexEntries: 7}
	b := Snapshot{LexHits: 2, HeaderHits: 1, BytesSaved: 40, LexEntries: 4}
	d := reg.Snapshot(Fields.Values(&a)).Sub(reg.Snapshot(Fields.Values(&b)))
	if d.Get("hcache_lex_hits") != 3 || d.Get("hcache_header_hits") != 2 || d.Get("hcache_bytes_saved") != 60 {
		t.Errorf("delta = %v", d.Map())
	}
}

func TestCanonIDs(t *testing.T) {
	canon := NewCanon()
	// Constants resolve without the shared space.
	tr := &cond.Formula{Op: cond.FTrue}
	fa := &cond.Formula{Op: cond.FFalse}
	if canon.ID(tr) != "1" || canon.ID(fa) != "0" {
		t.Fatalf("constant ids: %s %s", canon.ID(tr), canon.ID(fa))
	}
	// Equal functions exported from different spaces (with different
	// variable orders) canonicalize to the same id.
	s1 := cond.NewSpace(cond.ModeBDD)
	c1 := s1.And(s1.Var("A"), s1.Var("B"))
	s2 := cond.NewSpace(cond.ModeBDD)
	s2.Var("B") // reversed creation order
	c2 := s2.And(s2.Var("A"), s2.Var("B"))
	if id1, id2 := canon.ID(s1.Export(c1)), canon.ID(s2.Export(c2)); id1 != id2 {
		t.Errorf("ids differ: %s vs %s", id1, id2)
	}
	// Different functions get different ids.
	c3 := s1.Or(s1.Var("A"), s1.Var("B"))
	if canon.ID(s1.Export(c1)) == canon.ID(s1.Export(c3)) {
		t.Error("distinct functions share an id")
	}
}

// TestConcurrentAccess hammers both levels from several goroutines; run
// under -race it is the cache's thread-safety test.
func TestConcurrentAccess(t *testing.T) {
	c := New(Options{MaxLexEntries: 8, MaxHeaderEntries: 8})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (g+i)%12)
				c.StoreLex(key, &LexEntry{Bytes: i})
				c.LookupLex(key)
				c.Store(key, &Entry{Bytes: i, Fingerprint: []KV{{Key: "m:X", Sig: "s"}}})
				c.Lookup(key, func(e *Entry) bool { return e.Bytes%2 == 0 })
				canonF := &cond.Formula{Op: cond.FVar, Name: fmt.Sprintf("V%d", i%5)}
				c.Canon().ID(canonF)
			}
		}(g)
	}
	wg.Wait()
	s := c.Stats()
	if s.LexEntries > 8 || s.HeaderEntries > 8 {
		t.Errorf("bounds exceeded: %+v", s)
	}
}

// countingFS is an in-memory FS that counts reads and existence checks per
// path.
type countingFS struct {
	files         map[string]string
	mu            sync.Mutex
	reads, probes map[string]int
}

func (f *countingFS) ReadFile(p string) ([]byte, error) {
	f.mu.Lock()
	f.reads[p]++
	f.mu.Unlock()
	if s, ok := f.files[p]; ok {
		return []byte(s), nil
	}
	return nil, fmt.Errorf("not found: %s", p)
}

func (f *countingFS) Exists(p string) bool {
	f.mu.Lock()
	f.probes[p]++
	f.mu.Unlock()
	_, ok := f.files[p]
	return ok
}

// TestHoldsThroughMemo checks the shared read-set check and its memo: many
// concurrent checks over overlapping read sets read and hash each path, and
// probe each existence, at most once, and each check still sees every
// mismatch.
func TestHoldsThroughMemo(t *testing.T) {
	fs := &countingFS{
		files: map[string]string{"a.c": "int a;", "inc/p.h": "int p;", "b.c": "int b;"},
		reads: map[string]int{}, probes: map[string]int{},
	}
	deps := func(paths ...string) []Dep {
		out := make([]Dep, len(paths))
		for i, p := range paths {
			out[i] = Dep{Path: p, Hash: Hash([]byte(fs.files[p]))}
		}
		return out
	}
	probes := []Probe{{Path: "p.h", Exists: false}, {Path: "inc/p.h", Exists: true}}
	memo := NewMemo(fs)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			root := "a.c"
			if i%2 == 1 {
				root = "b.c"
			}
			if !memo.Holds(deps(root, "inc/p.h"), probes) {
				t.Errorf("check %d: unchanged read set does not hold", i)
			}
		}()
	}
	wg.Wait()
	for _, p := range []string{"a.c", "b.c", "inc/p.h"} {
		if fs.reads[p] != 1 {
			t.Errorf("%s read %d times, want 1", p, fs.reads[p])
		}
	}
	for _, p := range []string{"p.h", "inc/p.h"} {
		if fs.probes[p] != 1 {
			t.Errorf("%s probed %d times, want 1", p, fs.probes[p])
		}
	}

	for _, c := range []struct {
		name   string
		deps   []Dep
		probes []Probe
	}{
		{"edited dep", []Dep{{Path: "a.c", Hash: Hash([]byte("int a2;"))}}, nil},
		{"missing dep", []Dep{{Path: "gone.h", Hash: Hash(nil)}}, nil},
		{"shadowing file", deps("a.c"), []Probe{{Path: "inc/p.h", Exists: false}}},
		{"vanished file", deps("a.c"), []Probe{{Path: "p.h", Exists: true}}},
	} {
		if memo.Holds(c.deps, c.probes) {
			t.Errorf("%s: read set holds", c.name)
		}
	}
}
