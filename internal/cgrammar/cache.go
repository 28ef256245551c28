package cgrammar

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"

	"repro/internal/lalr"
	"repro/internal/stats"
)

// Table cache: generating the C LALR tables is the dominant startup cost of
// every tool, and the result is a pure function of the grammar. The first
// build per cache directory persists the tables (lalr gob encoding) under a
// grammar-fingerprint key; later processes decode them instead of running
// the LALR construction. Everything is best-effort and corruption-safe: a
// missing directory, an unreadable file, a stale fingerprint, or a failed
// decode all fall back to building from scratch (and rewrite the entry).
//
// SUPERC_TABLE_CACHE_DIR relocates the cache away from
// os.UserCacheDir()/superc; set it before the first Load call.
//
// TableCacheState and TableCacheStats expose the hit/miss outcome for the
// harness's metrics snapshot.

// cacheEnvVar relocates the cache directory when set.
const cacheEnvVar = "SUPERC_TABLE_CACHE_DIR"

var (
	cacheState  atomic.Value // string: last outcome
	cacheHits   stats.Counter
	cacheMisses stats.Counter
)

// TableCacheDir resolves the directory holding cached parse tables:
// $SUPERC_TABLE_CACHE_DIR, then os.UserCacheDir()/superc.
func TableCacheDir() (string, error) {
	if v := os.Getenv(cacheEnvVar); v != "" {
		return v, nil
	}
	base, err := os.UserCacheDir()
	if err != nil {
		return "", fmt.Errorf("cgrammar: no user cache dir: %w", err)
	}
	return filepath.Join(base, "superc"), nil
}

// TableCacheStats returns how many table loads hit and missed the cache in
// this process. With the package singleton the sum is at most one; direct
// tableFor/loadTable calls (tests) also count.
func TableCacheStats() (hits, misses int64) {
	return cacheHits.Load(), cacheMisses.Load()
}

// TableCacheState describes the most recent table-load outcome: "hit",
// "miss", "none" (no load yet), or "error: ...".
func TableCacheState() string {
	if v, ok := cacheState.Load().(string); ok {
		return v
	}
	return "none"
}

func setState(s string) { cacheState.Store(s) }

// Fingerprint returns the hex key identifying g's generated tables: a hash
// over the canonical grammar signature (symbols, productions, labels,
// precedence) plus the lalr wire-format version, so any change to either
// keys a fresh cache entry.
func Fingerprint(g *lalr.Grammar) string {
	h := sha256.New()
	fmt.Fprintf(h, "superc-table-cache v1\n")
	g.WriteSignature(h)
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// tableFor returns g's parse table, from the configured cache when
// possible. On a miss it builds the table and writes the cache entry
// best-effort.
func tableFor(g *lalr.Grammar) (*lalr.Table, error) {
	dir, err := TableCacheDir()
	if err != nil {
		setState("error: " + err.Error())
		return lalr.Build(g)
	}
	return tableForDir(g, dir)
}

// tableForDir is tableFor with an explicit directory (the testable core).
func tableForDir(g *lalr.Grammar, dir string) (*lalr.Table, error) {
	path := filepath.Join(dir, "tables-"+Fingerprint(g)+".gob")
	if table, err := loadTable(g, path); err == nil {
		cacheHits.Inc()
		setState("hit")
		return table, nil
	} else if !os.IsNotExist(err) {
		// Corrupt or stale entry: drop it so the rewrite below replaces it.
		os.Remove(path)
	}
	table, err := lalr.Build(g)
	if err != nil {
		return nil, err
	}
	cacheMisses.Inc()
	if werr := writeTable(table, dir, path); werr != nil {
		setState("error: " + werr.Error())
	} else {
		setState("miss")
	}
	return table, nil
}

// loadTable decodes and validates one cache entry.
func loadTable(g *lalr.Grammar, path string) (*lalr.Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	table, err := lalr.ReadTable(bufio.NewReader(f))
	if err != nil {
		return nil, err
	}
	if err := validateDecoded(g, table); err != nil {
		return nil, err
	}
	return table, nil
}

// writeTable persists the table atomically (temp file + rename), so a
// crashed or concurrent writer can never leave a torn entry behind.
func writeTable(table *lalr.Table, dir, path string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, "tables-*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	w := bufio.NewWriter(tmp)
	if err := table.Encode(w); err != nil {
		tmp.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// validateDecoded checks that a decoded table's grammar replica is exactly
// the skeleton grammar g plus the $accept augmentation lalr.Build appends —
// i.e. that every symbol and production index in the table resolves to the
// same name, label, and rule as in the grammar the semantic actions were
// written against. The fingerprint in the file name makes mismatches
// unlikely; this guards against hash truncation and hand-edited entries.
func validateDecoded(g *lalr.Grammar, table *lalr.Table) error {
	dg := table.Grammar
	if dg.NumSymbols() != g.NumSymbols()+1 {
		return fmt.Errorf("cgrammar: cached table has %d symbols, want %d", dg.NumSymbols(), g.NumSymbols()+1)
	}
	for i := 0; i < g.NumSymbols(); i++ {
		s := lalr.Symbol(i)
		if dg.Name(s) != g.Name(s) || dg.IsTerminal(s) != g.IsTerminal(s) {
			return fmt.Errorf("cgrammar: cached table symbol %d is %q, want %q", i, dg.Name(s), g.Name(s))
		}
	}
	gp, dp := g.Productions(), dg.Productions()
	if len(dp) != len(gp)+1 {
		return fmt.Errorf("cgrammar: cached table has %d productions, want %d", len(dp), len(gp)+1)
	}
	for i, p := range gp {
		d := dp[i]
		if d.Lhs != p.Lhs || d.Label != p.Label || d.Prec != p.Prec || len(d.Rhs) != len(p.Rhs) {
			return fmt.Errorf("cgrammar: cached table production %d is %s, want %s",
				i, dg.ProdString(d), g.ProdString(p))
		}
		for j := range p.Rhs {
			if d.Rhs[j] != p.Rhs[j] {
				return fmt.Errorf("cgrammar: cached table production %d is %s, want %s",
					i, dg.ProdString(d), g.ProdString(p))
			}
		}
	}
	if dg.Start() != g.Start() {
		return fmt.Errorf("cgrammar: cached table start symbol mismatch")
	}
	return nil
}

// EncodeTables writes c's parse tables in the lalr serialization format
// (the cache entry format).
func (c *C) EncodeTables(w io.Writer) error { return c.Table.Encode(w) }

// DecodeTables builds a C whose parse table is decoded from r instead of
// generated, validated against the built-in grammar. This is the cache-load
// path with an explicit reader, exported so round-trip tests can verify
// that decoded tables drive the parser identically.
func DecodeTables(r io.Reader) (*C, error) {
	c, info := newSkeleton()
	table, err := lalr.ReadTable(r)
	if err != nil {
		return nil, err
	}
	if err := validateDecoded(c.Grammar, table); err != nil {
		return nil, err
	}
	finish(c, info, table)
	return c, nil
}
