package daemon

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/analysis/passes"
	"repro/internal/cgrammar"
	"repro/internal/cli"
	"repro/internal/cond"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/guard"
	"repro/internal/harness"
	"repro/internal/hcache"
	"repro/internal/link"
	"repro/internal/preprocessor"
	"repro/internal/stats"
	"repro/internal/store"
)

// Config configures a Server.
type Config struct {
	// Root confines file-serving requests: every file and include path must
	// be a local (no "..", not absolute) path resolved beneath it.
	Root string
	// MaxJobs clamps per-request worker counts; 0 means GOMAXPROCS.
	MaxJobs int
	// Caps are per-axis guard maximums clamped onto request limits (QoS):
	// a request asking for more — or for no limit — gets the cap.
	Caps guard.Limits
	// Store, when non-nil, backs the header cache and the corpus facts
	// cache, persisting warm state across daemon restarts.
	Store *store.Store
	// MaxInFlight bounds concurrently executing batch requests; beyond it
	// requests queue briefly, then are shed with 429 + Retry-After. 0 means
	// 2×MaxJobs (two batches can interleave on the worker pool).
	MaxInFlight int
	// QueueDepth is the size of the admission waiting room; 0 means a small
	// default, negative disables queueing (immediate shed at saturation).
	QueueDepth int
	// QueueWait bounds how long a queued request waits for an execution slot
	// before being shed; 0 means 1s.
	QueueWait time.Duration
	// ReadTimeout/WriteTimeout bound each connection's request read and
	// response write (http.Server); zero values get generous defaults sized
	// for batch bodies rather than being unlimited.
	ReadTimeout  time.Duration
	WriteTimeout time.Duration
}

// Server is the superd request handler: one warm header cache and an
// optional artifact store shared by every request.
type Server struct {
	cfg   Config
	hc    *hcache.Cache
	mux   *http.ServeMux
	http  *http.Server
	adm   *admission
	start time.Time

	// afterAdmit, when set, runs after a request is admitted and before its
	// handler (drain tests hold requests in flight with it).
	afterAdmit func()

	reqLint, reqParse, reqCorpus stats.Counter
	reqLink                      stats.Counter
	units                        stats.Counter
	factsHits, factsMisses       stats.Counter
	linkUnits, linkFindings      stats.Counter
	linkFactsHits, linkFactsMiss stats.Counter
	failedUnits, killedUnits     stats.Counter
	budgetTrips                  stats.Counter
	forks, merges                stats.Counter
}

// NewServer builds a server over cfg. The header cache is created here —
// backed by cfg.Store when present — and lives for the server's lifetime.
func NewServer(cfg Config) *Server {
	if cfg.Root == "" {
		cfg.Root = "."
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 2 * cfg.MaxJobs
	}
	queueDepth := cfg.QueueDepth
	switch {
	case queueDepth == 0:
		queueDepth = 16
	case queueDepth < 0:
		queueDepth = 0
	}
	if cfg.ReadTimeout <= 0 {
		cfg.ReadTimeout = 60 * time.Second
	}
	if cfg.WriteTimeout <= 0 {
		// Batch responses are written only after the whole batch computes;
		// the write timeout must cover the slowest admissible batch.
		cfg.WriteTimeout = 10 * time.Minute
	}
	var backing hcache.Backing
	if cfg.Store != nil {
		backing = store.NewHeaderBacking(cfg.Store, preprocessor.PayloadCodec())
	}
	s := &Server{
		cfg:   cfg,
		hc:    hcache.New(hcache.Options{Backing: backing}),
		mux:   http.NewServeMux(),
		adm:   newAdmission(cfg.MaxInFlight, queueDepth, cfg.QueueWait),
		start: time.Now(),
	}
	s.mux.HandleFunc("POST /v1/lint", s.admit(s.handleLint))
	s.mux.HandleFunc("POST /v1/parse", s.admit(s.handleParse))
	s.mux.HandleFunc("POST /v1/link", s.admit(s.handleLink))
	s.mux.HandleFunc("POST /v1/corpus", s.admit(s.handleCorpus))
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.http = &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       cfg.ReadTimeout,
		WriteTimeout:      cfg.WriteTimeout,
		IdleTimeout:       2 * time.Minute,
	}
	return s
}

// admit gates a batch handler behind the admission valve. The client's
// remaining deadline (DeadlineHeader, milliseconds) becomes the request
// context's deadline, bounding both queue wait and the guard budgets inside
// the handler. Shed requests get 429 (503 while draining) with Retry-After,
// so well-behaved clients back off instead of hammering.
func (s *Server) admit(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if ms := r.Header.Get(DeadlineHeader); ms != "" {
			if n, err := strconv.ParseInt(ms, 10, 64); err == nil && n > 0 {
				ctx, cancel := context.WithTimeout(r.Context(), time.Duration(n)*time.Millisecond)
				defer cancel()
				r = r.WithContext(ctx)
			}
		}
		release, ok := s.adm.acquire(r.Context())
		if !ok {
			status := http.StatusTooManyRequests
			msg := "server overloaded"
			if s.adm.draining.Load() {
				status = http.StatusServiceUnavailable
				msg = "server draining"
			}
			w.Header().Set("Retry-After", "1")
			httpError(w, status, "%s; retry after backoff", msg)
			return
		}
		defer release()
		if s.afterAdmit != nil {
			s.afterAdmit()
		}
		h(w, r)
	}
}

// Handler exposes the route table (for tests via httptest).
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on l until Shutdown.
func (s *Server) Serve(l net.Listener) error { return s.http.Serve(l) }

// Drain flips the server to not-ready: new batch requests are shed with 503
// and the /healthz readiness probe fails, while in-flight batches keep
// running. Shutdown calls it implicitly; calling it earlier lets a load
// balancer move traffic before the listener closes.
func (s *Server) Drain() { s.adm.drain() }

// Shutdown drains in-flight requests (http.Server.Shutdown): readiness goes
// false, the listener closes immediately, running batches finish, then Serve
// returns.
func (s *Server) Shutdown(ctx context.Context) error {
	s.Drain()
	return s.http.Shutdown(ctx)
}

// Listen opens the listener for a -listen style address: "unix:PATH" or a
// path containing a slash listens on a unix socket (removing a stale socket
// file first); "tcp:ADDR" or a host:port listens on TCP.
func Listen(addr string) (net.Listener, error) {
	if path, ok := strings.CutPrefix(addr, "unix:"); ok {
		return listenUnix(path)
	}
	if hostport, ok := strings.CutPrefix(addr, "tcp:"); ok {
		return net.Listen("tcp", hostport)
	}
	if strings.Contains(addr, "/") {
		return listenUnix(addr)
	}
	return net.Listen("tcp", addr)
}

func listenUnix(path string) (net.Listener, error) {
	// A previous daemon that died without cleanup leaves a stale socket
	// file; binding requires removing it. A live daemon is detected by the
	// remove-then-bind race window being negligible for a local tool.
	os.Remove(path)
	return net.Listen("unix", path)
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// rootFS confines all file access to the server root: paths must be local
// (relative, no traversal above the root) and are resolved beneath it.
type rootFS struct{ root string }

func (f rootFS) resolve(p string) (string, error) {
	p = filepath.Clean(filepath.FromSlash(p))
	if !filepath.IsLocal(p) {
		return "", fmt.Errorf("daemon: path escapes server root: %s", p)
	}
	return filepath.Join(f.root, p), nil
}

func (f rootFS) ReadFile(p string) ([]byte, error) {
	full, err := f.resolve(p)
	if err != nil {
		return nil, err
	}
	return os.ReadFile(full)
}

func (f rootFS) Exists(p string) bool {
	full, err := f.resolve(p)
	if err != nil {
		return false
	}
	_, err = os.Stat(full)
	return err == nil
}

// checkLocal rejects any request path that would escape the root.
func checkLocal(paths []string) error {
	for _, p := range paths {
		if !filepath.IsLocal(filepath.Clean(filepath.FromSlash(p))) {
			return fmt.Errorf("path escapes server root: %s", p)
		}
	}
	return nil
}

func selectPasses(names []string) ([]*analysis.Analyzer, error) {
	if len(names) == 0 {
		return nil, nil
	}
	known := make(map[string]bool)
	for _, a := range passes.All() {
		known[a.Name] = true
	}
	for _, n := range names {
		if n == "all" {
			return passes.All(), nil
		}
		if !known[n] {
			return nil, fmt.Errorf("unknown pass %q", n)
		}
	}
	return passes.ByName(names), nil
}

// jobs clamps a requested worker count to the server bound.
func (s *Server) jobs(req, n int) int {
	if req <= 0 || req > s.cfg.MaxJobs {
		req = s.cfg.MaxJobs
	}
	return cli.Workers(req, n)
}

// parseWorkers clamps a requested intra-unit worker count to the server
// bound. Unlike jobs, zero means sequential, not "use the maximum":
// region-parallel parsing is opt-in per request.
func (s *Server) parseWorkers(req int) int {
	if req <= 0 {
		return 0
	}
	if req > s.cfg.MaxJobs {
		return s.cfg.MaxJobs
	}
	return req
}

// pipeline is the pipeline block every batch request carries in its flat
// wire fields; each request type lifts its own into one with pipeline().
type pipeline struct {
	files, includePaths []string
	defines             map[string]string
	mode, opt           string
	single              bool
	parseWorkers        int
	limits              Limits
}

func (r *LintRequest) pipeline() pipeline {
	return pipeline{files: r.Files, includePaths: r.IncludePaths, defines: r.Defines,
		mode: r.Mode, parseWorkers: r.ParseWorkers, limits: r.Limits}
}

func (r *ParseRequest) pipeline() pipeline {
	return pipeline{files: r.Files, includePaths: r.IncludePaths, defines: r.Defines,
		mode: r.Mode, opt: r.Opt, single: r.Single, parseWorkers: r.ParseWorkers, limits: r.Limits}
}

func (r *LinkRequest) pipeline() pipeline {
	return pipeline{files: r.Files, includePaths: r.IncludePaths, defines: r.Defines,
		mode: r.Mode, parseWorkers: r.ParseWorkers, limits: r.Limits}
}

func (r *CorpusRequest) pipeline() pipeline {
	return pipeline{mode: r.Mode, opt: r.Opt, single: r.Single,
		parseWorkers: r.ParseWorkers, limits: r.Limits}
}

// resolve validates a request's pipeline block and turns it into the
// core.Config its units run under — names through the same lookups as the
// CLI flags, paths confined to the root, parse workers clamped, the warm
// header cache attached unless single-configuration — plus the per-unit
// limits clamped to the server caps.
func (s *Server) resolve(p pipeline) (core.Config, guard.Limits, error) {
	mode, err := cli.ParseMode(p.mode)
	if err != nil {
		return core.Config{}, guard.Limits{}, err
	}
	opts, err := cli.ParseLevel(p.opt)
	if err != nil {
		return core.Config{}, guard.Limits{}, err
	}
	if err := checkLocal(p.files); err != nil {
		return core.Config{}, guard.Limits{}, err
	}
	if err := checkLocal(p.includePaths); err != nil {
		return core.Config{}, guard.Limits{}, err
	}
	cfg := core.Config{
		FS:           rootFS{s.cfg.Root},
		IncludePaths: p.includePaths,
		Defines:      p.defines,
		CondMode:     mode,
		Parser:       &opts,
		SingleConfig: p.single,
		ParseWorkers: s.parseWorkers(p.parseWorkers),
	}
	if !p.single {
		cfg.HeaderCache = s.hc
	}
	return cfg, Clamp(p.limits.ToGuard(), s.cfg.Caps), nil
}

// forEach runs fn over indices 0..n-1 on a bounded worker pool.
func forEach(n, workers int, fn func(i int)) {
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
}

func (s *Server) handleLint(w http.ResponseWriter, r *http.Request) {
	s.reqLint.Inc()
	var req LintRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	cfg, limits, err := s.resolve(req.pipeline())
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	analyzers, err := selectPasses(req.Passes)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if analyzers == nil {
		analyzers = passes.All()
	}
	resp := LintResponse{Units: make([]LintUnit, len(req.Files))}
	forEach(len(req.Files), s.jobs(req.Jobs, len(req.Files)), func(i int) {
		resp.Units[i] = s.lintUnit(r.Context(), cfg, req.Files[i], analyzers, limits)
	})
	s.units.Add(int64(len(req.Files)))
	writeJSON(w, &resp)
}

// lintUnit mirrors cmd/clint's lintFile: same tool construction, same error
// text, so the client's reassembled output is byte-identical.
func (s *Server) lintUnit(ctx context.Context, cfg core.Config, file string, analyzers []*analysis.Analyzer, limits guard.Limits) LintUnit {
	u := LintUnit{File: file}
	tool := core.New(cfg)
	budget := guard.New(ctx, limits)
	tool.SetBudget(budget)
	res, err := tool.ParseFile(file)
	if err != nil {
		u.Failed = true
		u.Errors = fmt.Sprintf("clint: %s: %v\n", file, err)
		return u
	}
	var errs strings.Builder
	for _, d := range res.Unit.Diags {
		if !d.Warning {
			fmt.Fprintf(&errs, "clint: %s\n", d)
		}
	}
	u.Errors = errs.String()
	result := analysis.Run(&analysis.Unit{
		File:   file,
		Space:  tool.Space(),
		AST:    res.AST,
		PP:     res.Unit,
		Budget: tool.Budget(),
	}, analyzers)
	u.Diags = make([]Diag, len(result.Diags))
	for i, d := range result.Diags {
		u.Diags[i] = FromAnalysis(d)
	}
	u.Stats = result.Stats
	if d := budget.Trip(); d != nil {
		s.budgetTrips.Inc()
	}
	return u
}

func (s *Server) handleParse(w http.ResponseWriter, r *http.Request) {
	s.reqParse.Inc()
	var req ParseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	cfg, limits, err := s.resolve(req.pipeline())
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	resp := ParseResponse{Units: make([]ParseUnit, len(req.Files))}
	forEach(len(req.Files), s.jobs(req.Jobs, len(req.Files)), func(i int) {
		resp.Units[i] = s.parseUnit(r.Context(), cfg, req.Files[i], limits)
	})
	resp.TableCache = cgrammar.TableCacheState()
	s.units.Add(int64(len(req.Files)))
	writeJSON(w, &resp)
}

// parseUnit runs one superc-style unit and extracts the deterministic
// summary (timings excluded; space-tied parse diagnostics pre-rendered).
func (s *Server) parseUnit(ctx context.Context, cfg core.Config, file string, limits guard.Limits) ParseUnit {
	u := ParseUnit{File: file}
	tool := core.New(cfg)
	budget := guard.New(ctx, limits)
	tool.SetBudget(budget)
	res, err := tool.ParseFile(file)
	if err != nil {
		u.Err = err.Error()
		return u
	}
	u.PreDiags = res.Unit.Diags
	for _, d := range res.Parse.Diags {
		u.ParseErrs = append(u.ParseErrs, fmt.Sprintf("%s: parse error under %s: %s",
			d.Tok.Pos(), tool.Space().String(d.Cond), d.Msg))
	}
	u.Killed = res.Parse.Killed
	u.Pre = res.Unit.Stats
	u.Pre.LexTime = 0
	p := res.Parse.Stats
	u.Parse = ParseStats{
		Iterations:    p.Iterations,
		MaxSubparsers: p.MaxSubparsers,
		P99:           p.Percentile(0.99),
		Forks:         p.Forks,
		Merges:        p.Merges,
		TypedefForks:  p.TypedefForks,
	}
	if res.AST != nil {
		u.HasAST = true
		u.Parse.ASTNodes = res.AST.Count()
		u.Parse.ChoiceNodes = res.AST.CountChoices()
	}
	if d := budget.Trip(); d != nil {
		u.BudgetErr = fmt.Sprintf("%v", d)
		s.budgetTrips.Inc()
	}
	s.forks.Add(int64(p.Forks))
	s.merges.Add(int64(p.Merges))
	if res.Parse.Killed {
		s.killedUnits.Inc()
	}
	if res.AST == nil {
		s.failedUnits.Inc()
	}
	return u
}

func (s *Server) handleLink(w http.ResponseWriter, r *http.Request) {
	s.reqLink.Inc()
	var req LinkRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	cfg, limits, err := s.resolve(req.pipeline())
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	fp := linkFingerprint(cfg, limits)
	useFacts := s.cfg.Store != nil && !req.NoFacts
	facts := make([]*link.Facts, len(req.Files))
	unitErrs := make([]string, len(req.Files))
	var hits, misses stats.Counter
	forEach(len(req.Files), s.jobs(req.Jobs, len(req.Files)), func(i int) {
		file := req.Files[i]
		// The cache key folds in the root file's content hash, so editing a
		// .c file invalidates its facts across restarts. Header edits are not
		// tracked here; flush with -no-facts (or a fresh store) after
		// changing shared headers.
		var key string
		if useFacts {
			if data, err := cfg.FS.ReadFile(file); err == nil {
				key = fmt.Sprintf("%s\x00%s\x00%x", fp, file, sha256.Sum256(data))
				if raw, ok := s.cfg.Store.Get(store.NSLink, key); ok {
					if f, err := link.DecodeFacts(raw); err == nil {
						facts[i] = f
						hits.Inc()
						return
					}
					s.cfg.Store.Delete(store.NSLink, key)
				}
			}
		}
		misses.Inc()
		tool := core.New(cfg)
		budget := guard.New(r.Context(), limits)
		tool.SetBudget(budget)
		res, err := tool.ParseFile(file)
		if err != nil {
			unitErrs[i] = fmt.Sprintf("%s: %v\n", file, err)
			return
		}
		if res.AST == nil {
			unitErrs[i] = fmt.Sprintf("%s: no AST (parse failed)\n", file)
			return
		}
		f := analysis.ExtractLinkFacts(&analysis.Unit{
			File:   file,
			Space:  tool.Space(),
			AST:    res.AST,
			PP:     res.Unit,
			Budget: tool.Budget(),
		})
		facts[i] = f
		tripped := budget.Trip() != nil
		if tripped {
			s.budgetTrips.Inc()
		}
		// Budget-tripped extractions may be truncated; only complete fact
		// sets persist.
		if key != "" && !tripped {
			if data, err := f.Encode(); err == nil {
				s.cfg.Store.Put(store.NSLink, key, data)
			}
		}
	})
	joined := make([]*link.Facts, 0, len(facts))
	for _, f := range facts {
		if f != nil {
			joined = append(joined, f)
		}
	}
	lr := link.Link(joined, s.hc.Canon())
	resp := LinkResponse{
		Units:       lr.Stats.Units,
		Symbols:     lr.Stats.Symbols,
		Facts:       lr.Stats.Facts,
		Findings:    make([]LinkFinding, len(lr.Findings)),
		FactsHits:   hits.Load(),
		FactsMisses: misses.Load(),
	}
	for i, f := range lr.Findings {
		resp.Findings[i] = FromLink(f)
	}
	for i, e := range unitErrs {
		if e != "" {
			resp.Failed = append(resp.Failed, LinkUnit{File: req.Files[i], Errors: e})
		}
	}
	s.units.Add(int64(len(req.Files)))
	s.linkUnits.Add(int64(lr.Stats.Units))
	s.linkFindings.Add(int64(len(lr.Findings)))
	s.linkFactsHits.Add(hits.Load())
	s.linkFactsMiss.Add(misses.Load())
	writeJSON(w, &resp)
}

// linkFingerprint keys the persisted link-fact cache: every resolved
// setting that affects one unit's extracted facts, plus the protocol
// version (fact shapes may change between builds). It is the JSON of one
// canonical struct — JSON quotes every string and sorts map keys, so no two
// configurations share a key, and an omitted mode keys like "bdd". Jobs and
// ParseWorkers are deliberately excluded — extraction is deterministic at
// any worker count.
func linkFingerprint(cfg core.Config, limits guard.Limits) string {
	key := struct {
		Version      string
		Mode         cond.Mode
		IncludePaths []string
		Defines      map[string]string
		Limits       guard.Limits
	}{Version: Version, Mode: cfg.CondMode, Limits: limits}
	if len(cfg.IncludePaths) > 0 {
		key.IncludePaths = cfg.IncludePaths
	}
	if len(cfg.Defines) > 0 {
		key.Defines = cfg.Defines
	}
	data, _ := json.Marshal(key) // strings, ints and a string map always encode
	return string(data)
}

func (s *Server) handleCorpus(w http.ResponseWriter, r *http.Request) {
	s.reqCorpus.Inc()
	var req CorpusRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	cfg, limits, err := s.resolve(req.pipeline())
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	analyzers, err := selectPasses(req.Passes)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	c := corpus.Generate(corpus.Params{Seed: req.Seed, CFiles: req.CFiles, GenHeaders: req.Headers})
	fp := s.factsFingerprint(req, limits)

	resp := CorpusResponse{Units: make([]CorpusUnit, len(c.CFiles))}
	var missing []int
	useFacts := s.cfg.Store != nil && !req.NoFacts
	for i, f := range c.CFiles {
		if useFacts && store.GetGob(s.cfg.Store, store.NSFacts, fp+"\x00"+f, &resp.Units[i]) {
			resp.FactsHits++
			continue
		}
		missing = append(missing, i)
	}
	if len(missing) > 0 {
		resp.FactsMisses = int64(len(missing))
		sub := *c
		sub.CFiles = make([]string, len(missing))
		for j, i := range missing {
			sub.CFiles[j] = c.CFiles[i]
		}
		results, m := harness.RunMetered(r.Context(), &sub, harness.RunConfig{
			Mode:         cfg.CondMode,
			Parser:       *cfg.Parser,
			Single:       cfg.SingleConfig,
			Jobs:         s.jobs(req.Jobs, len(missing)),
			ParseWorkers: cfg.ParseWorkers,
			HeaderCache:  cfg.HeaderCache,
			Budget:       limits,
			Analyzers:    analyzers,
		})
		for j, i := range missing {
			u := toCorpusUnit(&results[j])
			resp.Units[i] = u
			// A unit that errored (cancelled run, panic) is not a
			// deterministic fact; everything else is a pure function of
			// (corpus, config, limits) and may be served across restarts.
			if useFacts && u.Err == "" {
				store.PutGob(s.cfg.Store, store.NSFacts, fp+"\x00"+c.CFiles[i], &u)
			}
		}
		s.failedUnits.Add(int64(m.FailedUnits))
		s.killedUnits.Add(int64(m.KilledUnits))
		s.budgetTrips.Add(int64(m.BudgetTrips))
		s.forks.Add(m.Forks)
		s.merges.Add(m.Merges)
	}
	s.factsHits.Add(resp.FactsHits)
	s.factsMisses.Add(resp.FactsMisses)
	s.units.Add(int64(len(c.CFiles)))
	writeJSON(w, &resp)
}

// factsFingerprint keys the facts cache: every request knob that affects a
// unit's deterministic result, plus the protocol version (result shapes may
// change between builds). ParseWorkers is deliberately excluded: the
// region-parallel strategy is proven equivalent to sequential, so the
// deterministic facts are identical at every worker count.
func (s *Server) factsFingerprint(req CorpusRequest, limits guard.Limits) string {
	names := append([]string(nil), req.Passes...)
	sort.Strings(names)
	return fmt.Sprintf("%s;seed=%d;cfiles=%d;headers=%d;mode=%s;opt=%s;single=%t;passes=%s;limits=%+v",
		Version, req.Seed, req.CFiles, req.Headers, req.Mode, req.Opt, req.Single,
		strings.Join(names, ","), limits)
}

// toCorpusUnit extracts the deterministic subset of a harness result.
func toCorpusUnit(r *harness.UnitResult) CorpusUnit {
	u := CorpusUnit{
		File:      r.File,
		Bytes:     r.Bytes,
		Tokens:    r.Tokens,
		Pre:       r.Pre,
		Killed:    r.Killed,
		ParseFail: r.ParseFail,
		Err:       r.Err,
		Parse: ParseStats{
			Iterations:    r.Parse.Iterations,
			MaxSubparsers: r.Parse.MaxSubparsers,
			P99:           r.Parse.Percentile(0.99),
			Forks:         r.Parse.Forks,
			Merges:        r.Parse.Merges,
			TypedefForks:  r.Parse.TypedefForks,
			ChoiceNodes:   r.ChoiceNodes,
		},
	}
	u.Pre.LexTime = 0
	if a := r.Analysis; a != nil {
		u.HasAnalysis = true
		u.Diags = make([]Diag, len(a.Diags))
		for i, d := range a.Diags {
			u.Diags[i] = FromAnalysis(d)
		}
		u.Stats = a.Stats
	}
	return u
}

// counters collects every exposed counter under stable names.
func (s *Server) counters() map[string]int64 {
	m := map[string]int64{
		"requests_lint":        s.reqLint.Load(),
		"requests_parse":       s.reqParse.Load(),
		"requests_link":        s.reqLink.Load(),
		"requests_corpus":      s.reqCorpus.Load(),
		"units_total":          s.units.Load(),
		"facts_hits":           s.factsHits.Load(),
		"facts_misses":         s.factsMisses.Load(),
		"link_units":           s.linkUnits.Load(),
		"link_findings":        s.linkFindings.Load(),
		"link_facts_hits":      s.linkFactsHits.Load(),
		"link_facts_misses":    s.linkFactsMiss.Load(),
		"harness_failed_units": s.failedUnits.Load(),
		"harness_killed_units": s.killedUnits.Load(),
		"harness_budget_trips": s.budgetTrips.Load(),
		"harness_forks":        s.forks.Load(),
		"harness_merges":       s.merges.Load(),
	}
	m["admission_admitted"] = s.adm.admitted.Load()
	m["admission_queued_total"] = s.adm.queuedTotal.Load()
	m["admission_shed"] = s.adm.shed.Load()
	m["admission_in_flight"] = s.adm.inFlight.Load()
	m["admission_queued"] = s.adm.queued.Load()
	m["draining"] = b2i(s.adm.draining.Load())
	m["ready"] = b2i(s.adm.ready())
	hc := s.hc.Stats()
	m["hcache_header_hits"] = hc.HeaderHits
	m["hcache_header_misses"] = hc.HeaderMisses
	m["hcache_lex_hits"] = hc.LexHits
	m["hcache_lex_misses"] = hc.LexMisses
	m["hcache_bytes_saved"] = hc.BytesSaved
	m["hcache_evictions"] = hc.Evictions
	if s.cfg.Store != nil {
		st := s.cfg.Store.Stats()
		m["store_hits"] = st.Hits
		m["store_misses"] = st.Misses
		m["store_writes"] = st.Writes
		m["store_evictions"] = st.Evictions
		m["store_corrupt"] = st.Corrupt
		m["store_entries"] = st.Entries
		m["store_bytes"] = st.Bytes
		m["store_scrubbed"] = st.Scrubbed
		m["store_tmp_swept"] = st.TmpSwept
		m["store_write_errors"] = st.WriteErrors
		m["store_read_errors"] = st.ReadErrors
		m["store_degraded"] = st.Degraded
	}
	return m
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, &StatsResponse{
		Version:  Version,
		Uptime:   time.Since(s.start).Round(time.Millisecond).String(),
		Counters: s.counters(),
	})
}

// handleMetrics renders the counters in Prometheus text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	c := s.counters()
	names := make([]string, 0, len(c))
	for n := range c {
		names = append(names, n)
	}
	sort.Strings(names)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	for _, n := range names {
		fmt.Fprintf(w, "superd_%s %d\n", n, c[n])
	}
}

// handleHealthz serves both probes. Liveness (the default) is always 200
// while the process serves HTTP — existing clients Dial against it.
// Readiness (?probe=readiness) turns 503 during drain or full saturation so
// load balancers stop routing new work; the body carries both bits either
// way.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	ready := s.adm.ready()
	if r.URL.Query().Get("probe") == "readiness" && !ready {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(&HealthResponse{OK: true, Ready: false, Version: Version})
		return
	}
	writeJSON(w, &HealthResponse{OK: true, Ready: ready, Version: Version})
}
