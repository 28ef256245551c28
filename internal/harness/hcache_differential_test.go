package harness

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/cond"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/fmlr"
	"repro/internal/hcache"
	"repro/internal/preprocessor"
)

// diffUnit is one preprocessed unit paired with the space its conditions
// live in, so forests from different tools can be compared.
type diffUnit struct {
	unit  *preprocessor.Unit
	space *cond.Space
}

// sameForest compares two segment forests token-by-token (position
// included) and branch condition-by-condition, importing both sides'
// conditions into one fresh space for a semantic equality check.
func sameForest(t *testing.T, file string, a, b diffUnit) {
	t.Helper()
	cmp := cond.NewSpace(cond.ModeBDD)
	ia, ib := cmp.NewImporter(), cmp.NewImporter()
	ea, eb := a.space.NewExporter(), b.space.NewExporter()
	var walk func(x, y []preprocessor.Segment, path string)
	walk = func(x, y []preprocessor.Segment, path string) {
		if len(x) != len(y) {
			t.Fatalf("%s%s: %d vs %d segments", file, path, len(x), len(y))
		}
		for i := range x {
			xs, ys := x[i], y[i]
			if xs.IsToken() != ys.IsToken() {
				t.Fatalf("%s%s[%d]: segment kinds differ", file, path, i)
			}
			if xs.IsToken() {
				at, bt := xs.Tok, ys.Tok
				if at.Kind != bt.Kind || at.Text != bt.Text ||
					at.File != bt.File || at.Line != bt.Line || at.Col != bt.Col ||
					at.HasSpace != bt.HasSpace || at.Expanded != bt.Expanded {
					t.Fatalf("%s%s[%d]: token %v at %s vs %v at %s",
						file, path, i, at, at.Pos(), bt, bt.Pos())
				}
				continue
			}
			if len(xs.Cond.Branches) != len(ys.Cond.Branches) {
				t.Fatalf("%s%s[%d]: %d vs %d branches", file, path, i,
					len(xs.Cond.Branches), len(ys.Cond.Branches))
			}
			for j := range xs.Cond.Branches {
				ca := ia.Import(ea.Export(xs.Cond.Branches[j].Cond))
				cb := ib.Import(eb.Export(ys.Cond.Branches[j].Cond))
				if !cmp.Equal(ca, cb) {
					t.Fatalf("%s%s[%d] branch %d: %s vs %s", file, path, i, j,
						cmp.String(ca), cmp.String(cb))
				}
				walk(xs.Cond.Branches[j].Segs, ys.Cond.Branches[j].Segs,
					fmt.Sprintf("%s[%d].b%d", path, i, j))
			}
		}
	}
	walk(a.unit.EnsureSegments(), b.unit.EnsureSegments(), "")
}

// TestHeaderCacheDifferentialOracle is the corpus-level oracle for the
// shared header cache: every unit preprocessed through a cache shared by
// concurrent workers must be byte-identical (tokens, positions,
// diagnostics, deterministic statistics) to a sequential uncached run.
func TestHeaderCacheDifferentialOracle(t *testing.T) {
	c := corpus.Generate(corpus.Params{Seed: 3, CFiles: 12, GenHeaders: 10})

	preprocessUnit := func(f string, hc *hcache.Cache) diffUnit {
		tool := core.New(core.Config{
			FS:           c.FS,
			IncludePaths: IncludePaths,
			CondMode:     cond.ModeBDD,
			HeaderCache:  hc,
		})
		u, err := tool.Preprocess(f)
		if err != nil {
			t.Errorf("%s: %v", f, err)
			return diffUnit{}
		}
		return diffUnit{unit: u, space: tool.Space()}
	}

	// Sequential uncached reference.
	ref := make([]diffUnit, len(c.CFiles))
	for i, f := range c.CFiles {
		ref[i] = preprocessUnit(f, nil)
	}

	// Cached run: one cache shared by a pool of concurrent workers, so the
	// oracle also exercises record/replay interleaving (run with -race).
	shared := hcache.New(hcache.Options{})
	got := make([]diffUnit, len(c.CFiles))
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				got[i] = preprocessUnit(c.CFiles[i], shared)
			}
		}()
	}
	for i := range c.CFiles {
		work <- i
	}
	close(work)
	wg.Wait()

	for i, f := range c.CFiles {
		if ref[i].unit == nil || got[i].unit == nil {
			continue // preprocessUnit already reported the error
		}
		sameForest(t, f, ref[i], got[i])
		a, b := ref[i].unit, got[i].unit
		if len(a.Diags) != len(b.Diags) {
			t.Fatalf("%s: %d vs %d diagnostics", f, len(a.Diags), len(b.Diags))
		}
		for j := range a.Diags {
			if a.Diags[j].String() != b.Diags[j].String() {
				t.Fatalf("%s: diag %d: %s vs %s", f, j, a.Diags[j], b.Diags[j])
			}
		}
		as, bs := a.Stats, b.Stats
		as.LexTime, bs.LexTime = 0, 0 // wall-clock, legitimately differs
		if as != bs {
			t.Fatalf("%s: stats differ:\nuncached %+v\ncached   %+v", f, as, bs)
		}
	}

	// The corpus shares headers heavily across units: replays must occur or
	// the oracle is vacuous.
	s := shared.Stats()
	if s.HeaderHits == 0 {
		t.Errorf("no header-level hits across %d shared-header units: %+v", len(c.CFiles), s)
	}
	if s.LexHits == 0 {
		t.Errorf("no lex-level hits: %+v", s)
	}
}

// TestMeteredHeaderCacheMetrics checks the cache counters surfaced through
// the harness metrics snapshot (what cstats -metrics prints).
func TestMeteredHeaderCacheMetrics(t *testing.T) {
	c := smallCorpus()
	_, on := RunMetered(context.Background(), c, RunConfig{Parser: fmlr.OptAll, HeaderCache: hcache.New(hcache.Options{})})
	if on.Get("hcache_header_hits")+on.Get("hcache_header_misses") == 0 {
		t.Errorf("no header-level traffic recorded: %v", on.Map())
	}
	if on.Get("hcache_lex_hits")+on.Get("hcache_lex_misses") == 0 {
		t.Errorf("no lex-level traffic recorded: %v", on.Map())
	}
	_, off := RunMetered(context.Background(), c, RunConfig{Parser: fmlr.OptAll, NoHeaderCache: true})
	if off.Get("hcache_header_hits") != 0 || off.Get("hcache_header_misses") != 0 || off.Get("hcache_lex_hits") != 0 {
		t.Errorf("disabled cache recorded traffic: %v", off.Map())
	}
}
