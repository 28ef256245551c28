package fmlr

import (
	"fmt"
	"testing"

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
