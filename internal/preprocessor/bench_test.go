package preprocessor_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/preprocessor"
)

// BenchmarkPreprocessGiantUnit times what the giant-unit workload's
// preprocess step does — a fresh core.Tool, then Tool.Preprocess — on
// corpus.GiantUnit(1, 4000), a 329 KB unit with no headers, so lexing the
// unit itself is a large share of the work.
func BenchmarkPreprocessGiantUnit(b *testing.B) {
	fs := preprocessor.MapFS{"giant.c": corpus.GiantUnit(1, 4000)}
	b.ReportAllocs()
	b.SetBytes(int64(len(fs["giant.c"])))
	for i := 0; i < b.N; i++ {
		if _, err := core.New(core.Config{FS: fs}).Preprocess("giant.c"); err != nil {
			b.Fatal(err)
		}
	}
}
