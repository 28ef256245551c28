package repro

import (
	"os"
	"testing"

	"repro/internal/cgrammar"
	"repro/internal/core"
	"repro/internal/fmlr"
	"repro/internal/harness"
	"repro/internal/preprocessor"
)

// TestStreamSpeedRatchet is the streaming-pipeline performance ratchet: the
// stream-fused parse (Engine.ParseUnit: preprocessor chunks feeding the
// engine's cursor fast path) must not regress more than 10% against the
// sequential reference parse (Engine.Parse over the unit's materialized
// segment forest) on the benchmark corpus. Both arms parse the same
// preprocessed units; the segment forests are built before timing starts,
// so the reference arm is charged only for its parse. At introduction
// streaming measured ~1.7x *faster* than the materialized parse, so this
// trips only if the fast path stops engaging or its bookkeeping grows
// pathological. The comparison is in-process and relative — both arms run
// interleaved on the same machine in the same state, minima compared — so it
// is immune to cross-machine baseline drift. It runs only when
// STREAM_RATCHET=1 (CI's bench-smoke job); timing assertions are too noisy
// for the default test run.
func TestStreamSpeedRatchet(t *testing.T) {
	if os.Getenv("STREAM_RATCHET") != "1" {
		t.Skip("set STREAM_RATCHET=1 to run the streaming ratchet")
	}
	c := getCorpus()
	lang := cgrammar.MustLoad()
	tool := core.New(core.Config{FS: c.FS, IncludePaths: harness.IncludePaths})
	units := make([]*preprocessor.Unit, 0, len(c.CFiles))
	for _, cf := range c.CFiles {
		u, err := tool.Preprocess(cf)
		if err != nil {
			t.Fatal(err)
		}
		u.EnsureSegments()
		units = append(units, u)
	}

	// The differential suite proves the two parses byte-identical; here just
	// pin that the streaming arm actually streams, so the timing comparison
	// cannot silently become materialized-vs-materialized.
	probe := fmlr.New(tool.Space(), lang, fmlr.OptAll).ParseUnit(units[0])
	if probe.Stats.TokensStreamed == 0 {
		t.Fatal("streaming arm streamed no tokens; ratchet is vacuous")
	}

	run := func(parse func(*fmlr.Engine, *preprocessor.Unit) *fmlr.Result) int64 {
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, u := range units {
					if res := parse(fmlr.New(tool.Space(), lang, fmlr.OptAll), u); res.AST == nil {
						b.Fatal("parse failed")
					}
				}
			}
		})
		return r.NsPerOp()
	}
	stream := func(e *fmlr.Engine, u *preprocessor.Unit) *fmlr.Result { return e.ParseUnit(u) }
	materialized := func(e *fmlr.Engine, u *preprocessor.Unit) *fmlr.Result {
		return e.Parse(u.EnsureSegments(), u.File)
	}

	// Interleave the arms and keep each arm's fastest round: minima are far
	// more stable than means under CI scheduling noise.
	const rounds = 4
	minStream, minMat := int64(1<<62), int64(1<<62)
	for i := 0; i < rounds; i++ {
		if v := run(stream); v < minStream {
			minStream = v
		}
		if v := run(materialized); v < minMat {
			minMat = v
		}
	}
	ratio := float64(minStream) / float64(minMat)
	t.Logf("parse ns/op: streaming %d, materialized %d, ratio %.3f (%.2fx)",
		minStream, minMat, ratio, 1/ratio)
	if ratio > 1.10 {
		t.Errorf("streaming parse regressed: %d ns/op vs materialized %d ns/op (ratio %.3f exceeds the 1.10 ratchet)",
			minStream, minMat, ratio)
	}
}
