package harness

import (
	"context"
	"testing"

	"repro/internal/cond"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/fmlr"
	"repro/internal/hcache"
	"repro/internal/preprocessor"
	"repro/internal/store"
)

// storeCache returns a fresh in-memory header cache backed by st — each call
// simulates a new process attaching to the same on-disk store.
func storeCache(st *store.Store) *hcache.Cache {
	return hcache.New(hcache.Options{
		Backing: store.NewHeaderBacking(st, preprocessor.PayloadCodec()),
	})
}

// TestStorePersistedHeaderCacheOracle is the restart-survival oracle for the
// artifact store: a run whose header cache starts empty and replays every
// shared header from disk — through the gob wire codec — must produce
// forests semantically identical to an uncached run, and the replay must
// actually come from the store (high hit rate), not from recomputation.
func TestStorePersistedHeaderCacheOracle(t *testing.T) {
	c := corpus.Generate(corpus.Params{Seed: 5, CFiles: 10, GenHeaders: 10})
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}

	preprocessUnit := func(f string, hc *hcache.Cache) diffUnit {
		tool := core.New(core.Config{
			FS:           c.FS,
			IncludePaths: IncludePaths,
			CondMode:     cond.ModeBDD,
			HeaderCache:  hc,
		})
		u, err := tool.Preprocess(f)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		return diffUnit{unit: u, space: tool.Space()}
	}

	// Uncached reference.
	ref := make([]diffUnit, len(c.CFiles))
	for i, f := range c.CFiles {
		ref[i] = preprocessUnit(f, nil)
	}

	// First process: populates the store.
	cold := storeCache(st)
	for _, f := range c.CFiles {
		preprocessUnit(f, cold)
	}
	populated := st.Stats()
	if populated.Writes == 0 {
		t.Fatal("cold run persisted no artifacts")
	}

	// Second process: empty memory cache, everything replays from disk.
	warm := storeCache(st)
	for i, f := range c.CFiles {
		got := preprocessUnit(f, warm)
		sameForest(t, f, ref[i], got)
	}
	after := st.Stats()
	hits := after.Hits - populated.Hits
	total := hits + after.Misses - populated.Misses
	if total == 0 {
		t.Fatal("warm run never consulted the store")
	}
	// Headers whose recorded fingerprint embeds process-local condition ids
	// are non-portable: they are never persisted and miss once per process
	// before recomputing. The bound tolerates that tail while still failing
	// if replay broadly stops reaching the store.
	if rate := float64(hits) / float64(total); rate < 0.8 {
		t.Errorf("warm store hit rate %.2f (%d/%d); want > 0.8", rate, hits, total)
	}
	if n := after.Corrupt - populated.Corrupt; n != 0 {
		t.Errorf("warm run found %d corrupt artifacts", n)
	}
}

// TestStoreWarmRunMetrics checks the metered harness surface: a warm run
// over a persisted store reports store hits in Metrics and identical
// deterministic per-unit results.
func TestStoreWarmRunMetrics(t *testing.T) {
	c := corpus.Generate(corpus.Params{Seed: 6, CFiles: 8, GenHeaders: 8})
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	run := func() ([]UnitResult, Metrics) {
		return RunMetered(context.Background(), c, RunConfig{
			Parser:      fmlr.OptAll,
			HeaderCache: storeCache(st),
		})
	}
	coldRes, _ := run()
	warmRes, warm := run()
	if warm.Get("store_hits") == 0 {
		t.Fatal("warm RunMetered hit the store zero times")
	}
	if len(coldRes) != len(warmRes) {
		t.Fatalf("unit counts differ: %d vs %d", len(coldRes), len(warmRes))
	}
	for i := range coldRes {
		a, b := coldRes[i], warmRes[i]
		if a.File != b.File || a.Bytes != b.Bytes || a.Tokens != b.Tokens ||
			a.ChoiceNodes != b.ChoiceNodes || a.Killed != b.Killed ||
			a.ParseFail != b.ParseFail || a.Err != b.Err {
			t.Errorf("%s: warm result diverges from cold", a.File)
		}
		ap, bp := a.Pre, b.Pre
		ap.LexTime, bp.LexTime = 0, 0
		if ap != bp {
			t.Errorf("%s: preprocessor stats diverge cold/warm:\n  cold %+v\n  warm %+v", a.File, ap, bp)
		}
	}
}
