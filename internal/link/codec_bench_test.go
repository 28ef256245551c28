package link_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/harness"
	"repro/internal/link"
)

var sink any

// BenchmarkFactsCodec encodes and decodes the link facts of the first 50
// units of the seed-1 generated corpus; one op is all 50 units.
func BenchmarkFactsCodec(b *testing.B) {
	c := corpus.Generate(corpus.Params{Seed: 1, CFiles: 50})
	var facts []*link.Facts
	var payloads [][]byte
	for _, file := range c.CFiles {
		tool := core.New(core.Config{FS: c.FS, IncludePaths: harness.IncludePaths})
		res, err := tool.ParseFile(file)
		if err != nil {
			b.Fatalf("%s: %v", file, err)
		}
		f := analysis.ExtractLinkFacts(&analysis.Unit{File: file, Space: tool.Space(), AST: res.AST, PP: res.Unit})
		facts = append(facts, f)
		payloads = append(payloads, f.Encode())
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, f := range facts {
				sink = f.Encode()
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, p := range payloads {
				f, err := link.DecodeFacts(p)
				if err != nil {
					b.Fatal(err)
				}
				sink = f
			}
		}
	})
}
