package repro

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/passes"
	"repro/internal/cgrammar"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/fmlr"
	"repro/internal/preprocessor"
)

// complexityLayer is one pipeline layer timed by TestComplexityGate on one
// giant unit. bound is the largest allowed t(4k)/t(1k); 0 logs the ratio
// without gating it. within, when set, names an earlier layer whose t(4k)
// this layer's t(4k) may not exceed.
type complexityLayer struct {
	name   string
	bound  float64
	within string
	op     func(g *giantFixture)
}

// giantFixture is one corpus.GiantUnit size, preprocessed, parsed and
// resolved outside any timed region, so each layer is charged only for its
// own work.
type giantFixture struct {
	tool *core.Tool
	unit *preprocessor.Unit
	res  *fmlr.Result
	au   *analysis.Unit // resolved
}

func newGiantFixture(t *testing.T, items int) *giantFixture {
	tool := core.New(core.Config{FS: preprocessor.MapFS{"giant.c": corpus.GiantUnit(1, items)}})
	u, err := tool.Preprocess("giant.c")
	if err != nil {
		t.Fatal(err)
	}
	g := &giantFixture{tool: tool, unit: u}
	g.res = g.parse()
	if g.res.AST == nil || len(g.res.Diags) > 0 {
		t.Fatalf("giant unit of %d items did not parse cleanly", items)
	}
	g.au = g.analysisUnit()
	g.au.Resolution()
	return g
}

func (g *giantFixture) parse() *fmlr.Result {
	opts := fmlr.OptAll
	opts.ParseWorkers = 1
	return fmlr.New(g.tool.Space(), cgrammar.MustLoad(), opts).ParseUnit(g.unit)
}

func (g *giantFixture) analysisUnit() *analysis.Unit {
	return &analysis.Unit{File: "giant.c", Space: g.tool.Space(), AST: g.res.AST, PP: g.unit}
}

var complexityLayers = []complexityLayer{
	{"preprocess", 0, "", func(g *giantFixture) {
		if _, err := g.tool.Preprocess("giant.c"); err != nil {
			panic(err)
		}
	}},
	{"parse (sequential)", 5, "", func(g *giantFixture) { g.parse() }},
	{"resolution", 6, "parse (sequential)", func(g *giantFixture) { g.analysisUnit().Resolution() }},
	{"link extraction", 0, "", func(g *giantFixture) { analysis.ExtractLinkFacts(g.au) }},
	{"analysis passes", 0, "", func(g *giantFixture) { analysis.Run(g.au, passes.All()) }},
}

// TestComplexityGate measures how each pipeline layer grows with unit size:
// t(4k)/t(1k) on corpus.GiantUnit, whose file scope holds thousands of names
// and whose conditionals fork and merge throughout. A linear layer reads
// about 4. Like the stream and guard ratchets it is in-process and relative
// — one preprocessed unit per size, testing.Benchmark ns/op, the sizes
// interleaved over several rounds and minima compared — so it is immune to
// host drift. A layer gates once it has been made linear; the others are
// logged. Name resolution is also gated against the sequential parse: at
// 4k it may cost no more. Link extraction and the analysis passes are
// timed over a unit whose resolution is already memoized, so the
// resolution is charged once, to its own layer. It runs only when
// COMPLEXITY_GATE=1 (CI's bench-smoke job); timing assertions are too
// noisy for the default test run.
func TestComplexityGate(t *testing.T) {
	if os.Getenv("COMPLEXITY_GATE") != "1" {
		t.Skip("set COMPLEXITY_GATE=1 to run the complexity gate")
	}
	small, large := newGiantFixture(t, 1000), newGiantFixture(t, 4000)
	bench := func(op func(*giantFixture), g *giantFixture) int64 {
		return testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				op(g)
			}
		}).NsPerOp()
	}
	const rounds = 4
	large4k := make(map[string]int64)
	for _, l := range complexityLayers {
		minSmall, minLarge := int64(1<<62), int64(1<<62)
		for i := 0; i < rounds; i++ {
			minSmall = min(minSmall, bench(l.op, small))
			minLarge = min(minLarge, bench(l.op, large))
		}
		large4k[l.name] = minLarge
		ratio := float64(minLarge) / float64(minSmall)
		gate := "not gated"
		if l.bound > 0 {
			gate = fmt.Sprintf("bound %.1f", l.bound)
		}
		if l.within != "" {
			gate += ", t(4k) <= " + l.within
		}
		t.Logf("%-18s t(1k) %9.2f ms  t(4k) %9.2f ms  t(4k)/t(1k) %5.2f  (%s)",
			l.name, float64(minSmall)/1e6, float64(minLarge)/1e6, ratio, gate)
		if l.bound > 0 && ratio > l.bound {
			t.Errorf("%s grows superlinearly: t(4k)/t(1k) = %.2f exceeds the bound %.1f (%d vs %d ns/op)",
				l.name, ratio, l.bound, minLarge, minSmall)
		}
		if l.within != "" && minLarge > large4k[l.within] {
			t.Errorf("%s costs more than %s at 4k: %.2f vs %.2f ms", l.name, l.within,
				float64(minLarge)/1e6, float64(large4k[l.within])/1e6)
		}
	}
}
