package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/analysis/passes"
	"repro/internal/cgrammar"
	"repro/internal/core"
	"repro/internal/fmlr"
	"repro/internal/hcache"
	"repro/internal/link"
	"repro/internal/preprocessor"
)

// pipeline is one in-process SuperC configuration, driven the way clint
// drives it: a fresh core.Tool per unit, then Tool.Preprocess, an FMLR
// engine's ParseUnit, analysis.ExtractLinkFacts and analysis.Run, and
// link.Link over the whole batch.
type pipeline struct {
	cfg     core.Config
	lang    *cgrammar.C
	passes  []*analysis.Analyzer // nil runs no analysis passes (link-only)
	extract bool                 // extract link facts
	tr      *tracer
}

// unitOut is one unit's outcome plus the counters its layers keep.
type unitOut struct {
	result *analysis.Result // nil when no analysis ran or the unit failed
	facts  *link.Facts
	errs   string // what clint would print to standard error
	failed bool   // could not be preprocessed, or no configuration parsed
	pre    preprocessor.UnitStats
	parse  fmlr.Stats
	layers layerCounts
}

func newPipeline(cfg core.Config, analyzers []*analysis.Analyzer, extract bool, tr *tracer) *pipeline {
	return &pipeline{cfg: cfg, lang: cgrammar.MustLoad(), passes: analyzers, extract: extract, tr: tr}
}

// unit runs the per-unit chain; tid places its spans in the trace.
func (p *pipeline) unit(file string, tid int) unitOut {
	root := p.tr.begin("unit", file, 0, tid)
	defer p.tr.end(root)

	id := p.tr.begin("core.New", file, root, tid)
	tool := core.New(p.cfg)
	p.tr.end(id)

	id = p.tr.begin("preprocess", file, root, tid)
	pu, err := tool.Preprocess(file)
	p.tr.end(id)
	if err != nil {
		return unitOut{failed: true, errs: fmt.Sprintf("clint: %s: %v\n", file, err)}
	}
	var out unitOut
	var errs strings.Builder
	for _, d := range pu.Diags {
		if !d.Warning {
			fmt.Fprintf(&errs, "clint: %s\n", d)
		}
	}
	out.errs = errs.String()
	out.pre = pu.Stats

	opts := fmlr.OptAll
	opts.ParseWorkers = p.cfg.ParseWorkers
	id = p.tr.begin("parse", file, root, tid)
	res := fmlr.New(tool.Space(), p.lang, opts).ParseUnit(pu)
	p.tr.end(id)
	out.parse = res.Stats
	out.failed = res.AST == nil

	au := &analysis.Unit{File: file, Space: tool.Space(), AST: res.AST, PP: pu, Budget: tool.Budget()}
	if p.extract && res.AST != nil {
		id = p.tr.begin("extract", file, root, tid)
		out.facts = analysis.ExtractLinkFacts(au)
		p.tr.end(id)
	}
	if p.passes != nil {
		id = p.tr.begin("analysis", file, root, tid)
		out.result = analysis.Run(au, p.passes)
		p.tr.end(id)
	}
	if p.tr != nil {
		out.layers = countLayers(tool)
	}
	return out
}

// batch runs files on a pool of workers, as clint does, reporting each
// unit's latency through lat (which must be safe for concurrent use).
func (p *pipeline) batch(files []string, workers int, lat func(time.Duration)) []unitOut {
	outs := make([]unitOut, len(files))
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := range work {
				t0 := time.Now()
				outs[i] = p.unit(files[i], tid)
				if lat != nil {
					lat(time.Since(t0))
				}
			}
		}(w + 1)
	}
	for i := range files {
		work <- i
	}
	close(work)
	wg.Wait()
	return outs
}

// join links the batch's facts in argument order, as clint -link does.
func (p *pipeline) join(outs []unitOut, canon *hcache.Canon) *link.Result {
	facts := make([]*link.Facts, 0, len(outs))
	for i := range outs {
		if outs[i].facts != nil {
			facts = append(facts, outs[i].facts)
		}
	}
	id := p.tr.begin("link", "join", 0, 0)
	defer p.tr.end(id)
	return link.Link(facts, canon)
}

// lintOutput renders a batch as clint -format json does, link findings
// merged into their units, followed by the standard-error text.
func lintOutput(files []string, outs []unitOut, findings []link.Finding) []byte {
	results := make([]*analysis.Result, len(outs))
	var errs strings.Builder
	for i := range outs {
		results[i] = outs[i].result
		errs.WriteString(outs[i].errs)
	}
	mergeLinkDiags(results, files, findings)
	return renderLint(results, errs.String())
}

func renderLint(results []*analysis.Result, errs string) []byte {
	var b bytes.Buffer
	analysis.WriteJSON(&b, compact(results))
	b.WriteString(errs)
	return b.Bytes()
}

// linkText renders link findings as clint's text format does.
func linkText(findings []link.Finding) string {
	var b strings.Builder
	for _, f := range findings {
		b.WriteString(renderText(analysis.LinkDiagnostic(f)))
		b.WriteByte('\n')
	}
	return b.String()
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// mergeLinkDiags folds corpus-level findings into per-file results, the way
// clint merges them before rendering.
func mergeLinkDiags(results []*analysis.Result, files []string, findings []link.Finding) {
	idx := make(map[string]int, len(files))
	for i, f := range files {
		idx[f] = i
	}
	touched := map[int]bool{}
	for _, f := range findings {
		i, ok := idx[f.Unit]
		if !ok {
			continue
		}
		if results[i] == nil {
			results[i] = &analysis.Result{File: f.Unit, Stats: analysis.Stats{ByPass: map[string]int{}}}
		}
		results[i].Diags = append(results[i].Diags, analysis.LinkDiagnostic(f))
		touched[i] = true
	}
	for i := range touched {
		results[i].Diags = analysis.SortDiags(results[i].Diags)
	}
}

func compact(results []*analysis.Result) []*analysis.Result {
	out := make([]*analysis.Result, 0, len(results))
	for _, r := range results {
		if r != nil {
			out = append(out, r)
		}
	}
	return out
}

// renderText is clint's text rendering of one diagnostic.
func renderText(d analysis.Diagnostic) string {
	pos := d.File
	if d.Line > 0 {
		pos = fmt.Sprintf("%s:%d:%d", d.File, d.Line, d.Col)
	}
	verified := "verified"
	if !d.WitnessVerified {
		verified = "UNVERIFIED"
	}
	return fmt.Sprintf("%s: [%s] %s\n    when: %s\n    witness: %s (%s)",
		pos, d.Pass, d.Msg, d.CondStr, witnessText(d.Witness), verified)
}

func witnessText(w map[string]bool) string {
	if len(w) == 0 {
		return "any"
	}
	names := make([]string, 0, len(w))
	for n := range w {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, n := range names {
		v := "0"
		if w[n] {
			v = "1"
		}
		parts[i] = n + "=" + v
	}
	return strings.Join(parts, " ")
}

// dirFS serves files beneath a directory, so units read from disk carry the
// same relative names the daemon's root-confined file system gives them.
type dirFS string

func (d dirFS) ReadFile(p string) ([]byte, error) { return os.ReadFile(filepath.Join(string(d), p)) }

func (d dirFS) Exists(p string) bool {
	_, err := os.Stat(filepath.Join(string(d), p))
	return err == nil
}

// checkGoldens reproduces the repository's hand-checked references through
// the same public calls the workloads use: clint's JSON over the seeded-bug
// fixtures, and clint -link's text over the two-unit link corpus.
func checkGoldens() error {
	cfg := core.Config{
		IncludePaths: []string{"examples/clint"},
		ParseWorkers: fmlr.AutoWorkers(),
		HeaderCache:  hcache.New(hcache.Options{}),
	}
	files := []string{"examples/clint/config_bugs.c", "examples/clint/clean.c"}
	p := newPipeline(cfg, passes.All(), false, nil)
	got := lintOutput(files, p.batch(files, 1, nil), nil)
	if err := sameAsFile(got, "examples/clint/golden.json"); err != nil {
		return err
	}

	cfg.FS = dirFS("examples/link")
	cfg.IncludePaths = []string{"."}
	cfg.HeaderCache = hcache.New(hcache.Options{})
	files = []string{"a.c", "b.c"}
	p = newPipeline(cfg, passes.All(), true, nil)
	outs := p.batch(files, 1, nil)
	results := make([]*analysis.Result, len(outs))
	for i := range outs {
		results[i] = outs[i].result
	}
	mergeLinkDiags(results, files, p.join(outs, cfg.HeaderCache.Canon()).Findings)
	var text strings.Builder
	for _, r := range compact(results) {
		for _, d := range r.Diags {
			text.WriteString(renderText(d))
			text.WriteByte('\n')
		}
	}
	return sameAsFile([]byte(text.String()), "examples/link/golden.txt")
}

func sameAsFile(got []byte, path string) error {
	want, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("golden: %w", err)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("golden: output differs from %s", path)
	}
	return nil
}
