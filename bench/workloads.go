package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/analysis/passes"
	"repro/internal/cgrammar"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/daemon"
	"repro/internal/fmlr"
	"repro/internal/harness"
	"repro/internal/hcache"
	"repro/internal/link"
	"repro/internal/preprocessor"
)

// size fixes how much work one round does. Full sizes keep every round of a
// run on a 2-core machine between about one and three seconds; toy sizes let
// the test drive every workload through the real parent and child processes
// in a few seconds.
type size struct {
	batchUnits, batchHeaders int
	giantItems               []int // the traced round runs each; timed rounds the last
	daemonUnits, lintReqs    int
	editUnits, editReqs      int
}

// giantLabels name the giant-unit sizes in per-layer metrics; the full sizes
// are 1k, 2k and 4k file-scope items.
var giantLabels = []string{"1k", "2k", "4k"}

var (
	fullSize = size{batchUnits: 400, batchHeaders: 24, giantItems: []int{1000, 2000, 4000},
		daemonUnits: 200, lintReqs: 2000, editUnits: 200, editReqs: 40}
	toySize = size{batchUnits: 12, batchHeaders: 6, giantItems: []int{40, 80, 160},
		daemonUnits: 8, lintReqs: 30, editUnits: 8, editReqs: 3}
)

// roundOut is what one child reports for its round.
type roundOut struct {
	Ops     int                `json:"ops"`
	Failed  int                `json:"failed"`
	Seconds float64            `json:"seconds"` // measured wall time
	LatMS   []float64          `json:"lat_ms"`  // one entry per operation
	Digest  string             `json:"digest"`  // hash of the round's rendered output
	Layers  map[string]float64 `json:"layers,omitempty"`
}

// childArgs configures one round in a child process.
type childArgs struct {
	seed  int64
	sz    size
	work  string // this run's directory: inputs, stores, sockets
	round int
	check bool    // compare the daemon's output with the in-process chain
	tr    *tracer // nil when untraced
}

func nproc() int { return runtime.NumCPU() }

// latencies collects per-operation times from concurrent workers.
type latencies struct {
	mu sync.Mutex
	ms []float64
}

func (l *latencies) add(d time.Duration) {
	l.mu.Lock()
	l.ms = append(l.ms, msOf(d))
	l.mu.Unlock()
}

// batchLink is a clint -link run over a generated code base: a fresh header
// cache, nproc workers running the per-unit chain, then the corpus-wide link.
func batchLink(a *childArgs, ready func()) (*roundOut, error) {
	c := corpus.Generate(corpus.Params{Seed: a.seed, CFiles: a.sz.batchUnits, GenHeaders: a.sz.batchHeaders})
	hc := hcache.New(hcache.Options{})
	cfg := core.Config{FS: c.FS, IncludePaths: harness.IncludePaths, ParseWorkers: fmlr.AutoWorkers(), HeaderCache: hc}
	p := newPipeline(cfg, passes.All(), true, a.tr)
	var lat latencies
	ready()

	t0 := time.Now()
	outs := p.batch(c.CFiles, nproc(), lat.add)
	lr := p.join(outs, hc.Canon())
	text := lintOutput(c.CFiles, outs, lr.Findings)
	secs := time.Since(t0).Seconds()

	out := &roundOut{Ops: len(outs), Seconds: secs, LatMS: lat.ms, Digest: digest(text)}
	for i := range outs {
		if outs[i].failed {
			out.Failed++
		}
	}
	if err := witnessCheck(outs, lr); err != nil {
		return nil, err
	}
	if a.tr != nil {
		m := perLayer{}
		m.addChain(a.tr, "", outs)
		m.addLink(a.tr, lr)
		m.addHeaderCache(hc.Stats())
		out.Layers = m
	}
	return out, nil
}

// witnessCheck fails the run when any finding's witness configuration did
// not survive the independent re-check.
func witnessCheck(outs []unitOut, lr *link.Result) error {
	for i := range outs {
		if r := outs[i].result; r != nil && r.Stats.WitnessFailures > 0 {
			return fmt.Errorf("%s: %d analysis witness failures", r.File, r.Stats.WitnessFailures)
		}
	}
	if lr != nil && lr.Stats.WitnessFailures > 0 {
		return fmt.Errorf("link: %d witness failures", lr.Stats.WitnessFailures)
	}
	return nil
}

// giantUnit runs one huge generated unit through preprocess, parse and
// analysis with clint's default intra-unit parse workers. The traced round
// also runs the smaller sizes and re-parses sequentially.
func giantUnit(a *childArgs, ready func()) (*roundOut, error) {
	items := a.sz.giantItems
	if a.tr == nil {
		items = items[len(items)-1:]
	}
	// Each size is its own file, so the spans of one size can be told apart.
	files := make([]string, len(items))
	cfgs := make([]core.Config, len(items))
	for i, n := range items {
		files[i] = fmt.Sprintf("giant-%d.c", n)
		cfgs[i] = core.Config{
			FS:           preprocessor.MapFS{files[i]: corpus.GiantUnit(a.seed, n)},
			ParseWorkers: fmlr.AutoWorkers(),
			HeaderCache:  hcache.New(hcache.Options{}),
		}
	}
	ready()

	out := &roundOut{}
	m := perLayer{}
	chainMS := make([]float64, len(items))
	var largest []unitOut
	for i, f := range files {
		p := newPipeline(cfgs[i], passes.All(), false, a.tr)
		var before runtime.MemStats
		if a.tr != nil {
			runtime.ReadMemStats(&before)
		}
		t0 := time.Now()
		u := p.unit(f, 1)
		text := lintOutput(files[i:i+1], []unitOut{u}, nil)
		d := time.Since(t0)
		chainMS[i] = msOf(d)
		if err := witnessCheck([]unitOut{u}, nil); err != nil {
			return nil, err
		}
		if i < len(files)-1 {
			continue
		}
		// Only the largest unit is the workload's operation.
		out.Ops, out.Seconds, out.LatMS, out.Digest = 1, d.Seconds(), []float64{msOf(d)}, digest(text)
		if u.failed {
			out.Failed = 1
		}
		largest = []unitOut{u}
		if a.tr != nil {
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			m["fmlr.giant_alloc_mb.4k"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
		}
	}
	if a.tr == nil {
		return out, nil
	}

	seq := make([]float64, len(items))
	for i := range items {
		m["fmlr.giant_parse_ms."+giantLabels[i]] = msOf(a.tr.total("parse", files[i]))
		d, err := sequentialParse(cfgs[i], files[i])
		if err != nil {
			return nil, err
		}
		seq[i] = msOf(d)
	}
	n := len(items) - 1
	m["fmlr.giant_seq_parse_ms.4k"] = seq[n]
	m["fmlr.giant_seq_growth"] = ratio(seq[n], seq[0])
	m["giant.growth"] = ratio(chainMS[n], chainMS[0])
	m.addChain(a.tr, files[n], largest)
	m["preprocessor.giant_ms.4k"] = msOf(a.tr.total("preprocess", files[n]))
	m["analysis.giant_ms.4k"] = msOf(a.tr.total("analysis", files[n]))
	m.addHeaderCache(cfgs[n].HeaderCache.Stats())
	out.Layers = m
	return out, nil
}

// sequentialParse re-parses a unit with one parse worker and times only the
// parse.
func sequentialParse(cfg core.Config, file string) (time.Duration, error) {
	tool := core.New(cfg)
	u, err := tool.Preprocess(file)
	if err != nil {
		return 0, err
	}
	opts := fmlr.OptAll
	opts.ParseWorkers = 1
	t0 := time.Now()
	res := fmlr.New(tool.Space(), cgrammar.MustLoad(), opts).ParseUnit(u)
	d := time.Since(t0)
	if res.AST == nil {
		return 0, fmt.Errorf("%s failed to parse sequentially", file)
	}
	return d, nil
}

// daemonLint is lint-on-save traffic: nproc thin clients send single-file
// /v1/lint requests, closed loop, to an in-process superd whose header cache
// was warmed by one request per unit.
func daemonLint(a *childArgs, ready func()) (*roundOut, error) {
	root := filepath.Join(a.work, "root")
	files, err := readFileList(a.work)
	if err != nil {
		return nil, err
	}
	sd, err := startSuperd(a, root, filepath.Join(a.work, fmt.Sprintf("store-%d", a.round)))
	if err != nil {
		return nil, err
	}
	defer sd.stop()
	clients := make([]*benchClient, nproc())
	for i := range clients {
		if clients[i], err = sd.dial(i + 1); err != nil {
			return nil, err
		}
	}
	// lint sends one single-file request and renders the reply as clint
	// -daemon does; a transport failure or a failed unit is a failed request.
	lint := func(c *benchClient, file string) (text []byte, failed bool, err error) {
		var resp *daemon.LintResponse
		if err := c.call(file, func() (err error) {
			resp, err = c.Lint(&daemon.LintRequest{Files: []string{file}, IncludePaths: harness.IncludePaths,
				Mode: "bdd", ParseWorkers: fmlr.AutoWorkers()})
			return err
		}); err != nil {
			return nil, true, nil
		}
		u := resp.Units[0]
		if u.Stats.WitnessFailures > 0 {
			return nil, false, fmt.Errorf("%s: %d analysis witness failures", file, u.Stats.WitnessFailures)
		}
		var r *analysis.Result
		if !u.Failed {
			r = &analysis.Result{File: u.File, Stats: u.Stats}
			for _, d := range u.Diags {
				r.Diags = append(r.Diags, d.ToAnalysis())
			}
		}
		return renderLint([]*analysis.Result{r}, u.Errors), u.Failed, nil
	}
	// Warm-up: one request per unit fills the header cache and the store.
	if err := forClients(clients, len(files), func(c *benchClient, i int) error {
		_, failed, err := lint(c, files[i])
		if failed {
			return fmt.Errorf("%s failed", files[i])
		}
		return err
	}); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	r := rand.New(rand.NewSource(a.seed))
	order := make([]int, a.sz.lintReqs)
	for i := range order {
		order[i] = r.Intn(len(files))
	}
	before, err := clients[0].Stats()
	if err != nil {
		return nil, err
	}
	var lat latencies
	got := make([]string, len(files))
	var mu sync.Mutex
	var failed atomic.Int64
	sd.mark = a.tr.mark()
	ready()

	t0 := time.Now()
	err = forClients(clients, len(order), func(c *benchClient, i int) error {
		f := order[i]
		t := time.Now()
		text, unitFailed, err := lint(c, files[f])
		lat.add(time.Since(t))
		if err != nil {
			return err
		}
		if unitFailed {
			failed.Add(1)
			return nil
		}
		h := digest(text)
		mu.Lock()
		defer mu.Unlock()
		if got[f] != "" && got[f] != h {
			return fmt.Errorf("%s: daemon output changed between requests", files[f])
		}
		got[f] = h
		return nil
	})
	secs := time.Since(t0).Seconds()
	if err != nil {
		return nil, err
	}
	after, err := clients[0].Stats()
	if err != nil {
		return nil, err
	}

	var all bytes.Buffer
	for _, h := range got {
		all.WriteString(h)
	}
	out := &roundOut{Ops: len(order), Failed: int(failed.Load()), Seconds: secs, LatMS: lat.ms, Digest: digest(all.Bytes())}
	if !a.check {
		return out, nil
	}

	// Untimed: the in-process chain over the same files must render
	// byte-identically. Rounds that skip this check must match this one's
	// digest.
	cfg := core.Config{FS: dirFS(root), IncludePaths: harness.IncludePaths, ParseWorkers: fmlr.AutoWorkers(),
		HeaderCache: hcache.New(hcache.Options{})}
	p := newPipeline(cfg, passes.All(), false, a.tr)
	outs := p.batch(files, nproc(), nil)
	for i := range outs {
		want := digest(lintOutput(files[i:i+1], outs[i:i+1], nil))
		if got[i] != "" && got[i] != want {
			return nil, fmt.Errorf("%s: daemon lint output differs from the in-process chain", files[i])
		}
	}
	if err := witnessCheck(outs, nil); err != nil {
		return nil, err
	}
	if a.tr != nil {
		m := perLayer{}
		m.addChain(a.tr, "", outs)
		sd.addLayers(m, before.Counters, after.Counters, clients)
		out.Layers = m
	}
	return out, nil
}

// linkEdit is incremental CI link checking: one client edits two units on
// disk, then asks superd to link the whole corpus, most of whose facts come
// from the store a priming run filled.
func linkEdit(a *childArgs, ready func()) (*roundOut, error) {
	root := filepath.Join(a.work, "root")
	files, err := readFileList(a.work)
	if err != nil {
		return nil, err
	}
	sd, err := startSuperd(a, root, filepath.Join(a.work, fmt.Sprintf("store-%d", a.round)))
	if err != nil {
		return nil, err
	}
	defer sd.stop()
	c, err := sd.dial(1)
	if err != nil {
		return nil, err
	}
	before, err := c.Stats()
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(a.seed))
	var lat latencies
	var all bytes.Buffer
	var last string
	failed := 0
	ready()

	t0 := time.Now()
	for i := 0; i < a.sz.editReqs; i++ {
		x := r.Intn(len(files))
		y := (x + 1 + r.Intn(len(files)-1)) % len(files)
		if err := appendEdit(root, files[x], i, 0, 1); err != nil {
			return nil, err
		}
		if err := appendEdit(root, files[y], i, 1, 0); err != nil {
			return nil, err
		}
		var resp *daemon.LinkResponse
		t := time.Now()
		err := c.call("link", func() (err error) {
			resp, err = c.Link(&daemon.LinkRequest{Files: files, IncludePaths: harness.IncludePaths,
				Mode: "bdd", ParseWorkers: fmlr.AutoWorkers()})
			return err
		})
		lat.add(time.Since(t))
		if err != nil || len(resp.Failed) > 0 {
			failed++
			continue
		}
		findings := make([]link.Finding, len(resp.Findings))
		for j, f := range resp.Findings {
			if !f.WitnessVerified {
				return nil, fmt.Errorf("link: witness for %s %s failed its re-check", f.Family, f.Symbol)
			}
			findings[j] = f.ToLink()
		}
		last = linkText(findings)
		all.WriteString(digest([]byte(last)))
	}
	secs := time.Since(t0).Seconds()
	after, err := c.Stats()
	if err != nil {
		return nil, err
	}

	out := &roundOut{Ops: a.sz.editReqs, Failed: failed, Seconds: secs, LatMS: lat.ms, Digest: digest(all.Bytes())}
	if !a.check {
		return out, nil
	}

	// Untimed: the in-process chain over the edited files must render the
	// last response byte-identically. Rounds that skip this check must match
	// this one's digest.
	cfg := core.Config{FS: dirFS(root), IncludePaths: harness.IncludePaths, ParseWorkers: fmlr.AutoWorkers(),
		HeaderCache: hcache.New(hcache.Options{})}
	p := newPipeline(cfg, nil, true, a.tr)
	outs := p.batch(files, nproc(), nil)
	lr := p.join(outs, cfg.HeaderCache.Canon())
	if err := witnessCheck(outs, lr); err != nil {
		return nil, err
	}
	if failed == 0 && linkText(lr.Findings) != last {
		return nil, fmt.Errorf("daemon link output differs from the in-process chain")
	}
	if a.tr != nil {
		m := perLayer{}
		m.addChain(a.tr, "", outs)
		m.addLink(a.tr, lr)
		sd.addLayers(m, before.Counters, after.Counters, []*benchClient{c})
		out.Layers = m
	}
	return out, nil
}

// primeLinkEdit fills the link-edit store: one /v1/link over every unit.
func primeLinkEdit(a *childArgs) error {
	files, err := readFileList(a.work)
	if err != nil {
		return err
	}
	sd, err := startSuperd(a, filepath.Join(a.work, "root"), filepath.Join(a.work, "store-primed"))
	if err != nil {
		return err
	}
	defer sd.stop()
	c, err := sd.dial(1)
	if err != nil {
		return err
	}
	resp, err := c.Link(&daemon.LinkRequest{Files: files, IncludePaths: harness.IncludePaths, Mode: "bdd",
		ParseWorkers: fmlr.AutoWorkers()})
	if err != nil {
		return err
	}
	if len(resp.Failed) > 0 {
		return fmt.Errorf("priming link: %d units failed", len(resp.Failed))
	}
	return nil
}

// appendEdit appends a fresh external definition to a unit, plus a function
// that references the definition the other edited unit of request req adds.
func appendEdit(root, file string, req, self, other int) error {
	f, err := os.OpenFile(filepath.Join(root, file), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(f, "\nextern int bench_d%d_%d;\nint bench_d%d_%d = %d;\nint bench_f%d_%d(void) { return bench_d%d_%d; }\n",
		req, other, req, self, req, req, self, req, other)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// fileList is where a run's parent lists the units it wrote, in generation
// order, for the daemon workloads' children.
const fileList = "files.txt"

func readFileList(work string) ([]string, error) {
	data, err := os.ReadFile(filepath.Join(work, fileList))
	if err != nil {
		return nil, err
	}
	return strings.Fields(string(data)), nil
}

// forClients runs n operations over the clients, closed loop: each client
// takes the next index only after its previous operation completed.
func forClients(clients []*benchClient, n int, op func(c *benchClient, i int) error) error {
	var next atomic.Int64
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for k, c := range clients {
		wg.Add(1)
		go func(k int, c *benchClient) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := op(c, i); err != nil {
					errs[k] = err
					return
				}
			}
		}(k, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func prepareDaemonLint(o *options, work string) error {
	return writeCorpus(o.seed, o.size().daemonUnits, work, "root")
}

// prepareLinkEdit writes the pristine corpus and has a priming child fill
// the store every round then starts from.
func prepareLinkEdit(o *options, work string) error {
	if err := writeCorpus(o.seed, o.size().editUnits, work, "pristine"); err != nil {
		return err
	}
	if err := copyTree(filepath.Join(work, "pristine"), filepath.Join(work, "root")); err != nil {
		return err
	}
	_, err := spawnRound(o, "link-edit", 0, work, "", "-prime")
	return err
}

// restoreLinkEdit gives a round the unedited corpus and a copy of the primed
// store, so every round starts from the same state.
func restoreLinkEdit(work string, round int) error {
	root := filepath.Join(work, "root")
	if err := os.RemoveAll(root); err != nil {
		return err
	}
	if err := copyTree(filepath.Join(work, "pristine"), root); err != nil {
		return err
	}
	return copyTree(filepath.Join(work, "store-primed"), filepath.Join(work, fmt.Sprintf("store-%d", round)))
}

// writeCorpus writes a generated corpus beneath work/dir and lists its units
// in work/files.txt.
func writeCorpus(seed int64, units int, work, dir string) error {
	c := corpus.Generate(corpus.Params{Seed: seed, CFiles: units, GenHeaders: 24})
	for p, body := range c.FS {
		full := filepath.Join(work, dir, filepath.FromSlash(p))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(full, []byte(body), 0o644); err != nil {
			return err
		}
	}
	return os.WriteFile(filepath.Join(work, fileList), []byte(strings.Join(c.CFiles, "\n")+"\n"), 0o644)
}

func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}
