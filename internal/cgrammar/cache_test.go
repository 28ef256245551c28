package cgrammar

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/lalr"
)

// BenchmarkTableBuild vs BenchmarkTableDecode measure what the cache saves:
// a cold start runs newSkeleton+lalr.Build, a warm start newSkeleton+decode.
func BenchmarkTableBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Rebuild(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableDecode(b *testing.B) {
	c, err := Rebuild()
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.EncodeTables(&buf); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeTables(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}

// buildVia runs the skeleton+tableForDir pipeline against dir, returning
// the C and whether the load hit the cache.
func buildVia(t *testing.T, dir string) (*C, bool) {
	t.Helper()
	h0, _ := TableCacheStats()
	c, info := newSkeleton()
	table, err := tableForDir(c.Grammar, dir)
	if err != nil {
		t.Fatal(err)
	}
	finish(c, info, table)
	h1, _ := TableCacheStats()
	return c, h1 > h0
}

func cacheEntries(t *testing.T, dir string) []string {
	t.Helper()
	m, err := filepath.Glob(filepath.Join(dir, "tables-*.gob"))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestTableCacheMissThenHit(t *testing.T) {
	dir := t.TempDir()
	c1, hit := buildVia(t, dir)
	if hit {
		t.Fatal("first build hit an empty cache")
	}
	if len(cacheEntries(t, dir)) != 1 {
		t.Fatalf("cache entries after miss: %v", cacheEntries(t, dir))
	}
	c2, hit := buildVia(t, dir)
	if !hit {
		t.Fatal("second build missed a populated cache")
	}
	// The cached table must be structurally identical to the built one.
	if c1.Table.NumStates != c2.Table.NumStates {
		t.Errorf("states: %d vs %d", c2.Table.NumStates, c1.Table.NumStates)
	}
	if c1.Table.AcceptProd != c2.Table.AcceptProd {
		t.Errorf("accept prod: %d vs %d", c2.Table.AcceptProd, c1.Table.AcceptProd)
	}
	if len(c1.Info) != len(c2.Info) {
		t.Fatalf("info length: %d vs %d", len(c2.Info), len(c1.Info))
	}
	for i := range c1.Info {
		if c1.Info[i] != c2.Info[i] {
			t.Errorf("info[%d]: %+v vs %+v", i, c2.Info[i], c1.Info[i])
		}
	}
	for i, p := range c1.Grammar.Productions() {
		q := c2.Grammar.Productions()[i]
		if p.Label != q.Label || p.Lhs != q.Lhs {
			t.Errorf("production %d: %q vs %q", i, q.Label, p.Label)
		}
	}
}

func TestTableCacheCorruptEntryRebuilds(t *testing.T) {
	dir := t.TempDir()
	if _, hit := buildVia(t, dir); hit {
		t.Fatal("first build hit")
	}
	entries := cacheEntries(t, dir)
	if len(entries) != 1 {
		t.Fatalf("entries: %v", entries)
	}
	if err := os.WriteFile(entries[0], []byte("not a gob stream"), 0o644); err != nil {
		t.Fatal(err)
	}
	c, hit := buildVia(t, dir)
	if hit {
		t.Fatal("corrupt entry counted as hit")
	}
	if c.Table == nil || c.Table.NumStates == 0 {
		t.Fatal("rebuild after corruption produced no table")
	}
	// The corrupt entry was replaced with a loadable one.
	if _, hit := buildVia(t, dir); !hit {
		t.Error("rewritten entry not loadable")
	}
}

func TestFingerprintTracksGrammar(t *testing.T) {
	a, _ := newSkeleton()
	b, _ := newSkeleton()
	if Fingerprint(a.Grammar) != Fingerprint(b.Grammar) {
		t.Error("identical grammars fingerprint differently")
	}
	b.Grammar.Rule("TranslationUnit", "asm").WithLabel("BogusRule")
	if Fingerprint(a.Grammar) == Fingerprint(b.Grammar) {
		t.Error("grammar change did not change the fingerprint")
	}
}

func TestValidateDecodedRejectsForeignTable(t *testing.T) {
	g := lalr.NewGrammar()
	g.Terminal("x")
	g.SetStart("S")
	g.Rule("S", "x")
	table, err := lalr.Build(g)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := newSkeleton()
	if err := validateDecoded(c.Grammar, table); err == nil {
		t.Error("foreign table validated against the C grammar")
	}
}
