package fmlr

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cgrammar"
	"repro/internal/cond"
	"repro/internal/corpus"
	"repro/internal/preprocessor"
)

// BenchmarkParseGiantUnit measures intra-unit scaling on one unit large
// enough that region parallelism, not per-unit scheduling, determines wall
// time. workers=1 is the sequential stream (the parallel path is bypassed
// entirely), so comparing workers=1 against older baselines also bounds the
// dispatch overhead this feature adds to ordinary parses.
//
//	go test -bench ParseGiantUnit -count 10 ./internal/fmlr/ | benchstat -
func BenchmarkParseGiantUnit(b *testing.B) {
	src := corpus.GiantUnit(42, 3600)
	lang := cgrammar.MustLoad()
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			s := cond.NewSpace(cond.ModeBDD)
			p := preprocessor.New(preprocessor.Options{
				Space: s,
				FS:    preprocessor.MapFS(map[string]string{"main.c": src}),
			})
			u, err := p.Preprocess("main.c")
			if err != nil {
				b.Fatalf("preprocess: %v", err)
			}
			opts := OptAll
			opts.ParseWorkers = w
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := New(s, lang, opts).ParseUnit(u)
				if res.AST == nil {
					b.Fatalf("parse failed: %+v", res.Diags)
				}
			}
		})
	}
}

// BenchmarkParallelCrossover locates minParallelTokens. Every iteration
// parses a fresh copy of each unit twice, in turn: once by the sequential
// stream and once by two region workers driven past ParseUnit's size gate
// (the sequential fallback included when the unit does not split). Each
// copy is preprocessed off the clock, so the segment forest the split
// needs is charged to the parallel side, as it is on a real unit, and
// alternating the two keeps host drift out of their ratio. items=N is
// corpus.GiantUnit(1, N); corpus is 40 units of the generator the batch
// benchmarks use. It reports the mean tokens and both parse times per unit,
// and speedup = seq/par.
//
//	go test -run XXX -bench ParallelCrossover -benchtime 5x -count 15 ./internal/fmlr/
func BenchmarkParallelCrossover(b *testing.B) {
	lang := cgrammar.MustLoad()
	run := func(b *testing.B, fs preprocessor.MapFS, files, includes []string) {
		var took [2]time.Duration
		tokens := 0
		for i := 0; i < b.N; i++ {
			for _, file := range files {
				for w := 1; w <= 2; w++ {
					s := cond.NewSpace(cond.ModeBDD)
					p := preprocessor.New(preprocessor.Options{Space: s, FS: fs, IncludePaths: includes})
					u, err := p.Preprocess(file)
					if err != nil {
						b.Fatalf("%s: preprocess: %v", file, err)
					}
					if i == 0 && w == 1 {
						tokens += u.Stats.Tokens
					}
					opts := OptAll
					opts.ParseWorkers = w
					e := New(s, lang, opts)
					start := time.Now()
					var res *Result
					ok := false
					if w > 1 {
						res, ok = e.parseParallel(u.EnsureSegments(), u.Chunks, u.File)
					}
					if !ok {
						res = e.parseStream(preprocessor.NewChunkSource(u.Chunks), u.File)
					}
					took[w-1] += time.Since(start)
					if res.AST == nil {
						b.Fatalf("%s: parse failed: %+v", file, res.Diags)
					}
				}
			}
		}
		perUnit := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(b.N*len(files)) }
		b.ReportMetric(float64(tokens)/float64(len(files)), "tokens/unit")
		b.ReportMetric(perUnit(took[0]), "seq-ns/unit")
		b.ReportMetric(perUnit(took[1]), "par-ns/unit")
		b.ReportMetric(float64(took[0])/float64(took[1]), "speedup")
	}
	for _, items := range []int{25, 50, 75, 100, 150, 200, 400, 1000, 4000} {
		src := corpus.GiantUnit(1, items)
		b.Run(fmt.Sprintf("items=%d", items), func(b *testing.B) {
			run(b, preprocessor.MapFS{"main.c": src}, []string{"main.c"}, nil)
		})
	}
	c := corpus.Generate(corpus.Params{Seed: 1, CFiles: 40, GenHeaders: 24})
	b.Run("corpus", func(b *testing.B) {
		run(b, c.FS, c.CFiles, []string{"include", "include/gen", "include/linux"})
	})
}
