package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	iofs "io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/analysis/passes"
	"repro/internal/cgrammar"
	"repro/internal/cli"
	"repro/internal/cond"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/fmlr"
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

	// counts holds the serverDescs counters; units and links total every
	// endpoint's finished units and link runs under the harness and link
	// declarations, so those names mean what they mean in a harness run.
	counts, units, links *stats.CounterSet
}

// Server counters: the slots of Server.counts.
const (
	reqLint = iota
	reqParse
	reqLink
	reqCorpus
	unitsTotal
	factsHits
	factsMisses
	linkFactsHits
	linkFactsMisses
	linkFactsStale
	numCounters
)

var serverDescs = []stats.Desc{
	reqLint:         {Name: "requests_lint", Help: "Lint requests received."},
	reqParse:        {Name: "requests_parse", Help: "Parse requests received."},
	reqLink:         {Name: "requests_link", Help: "Link requests received."},
	reqCorpus:       {Name: "requests_corpus", Help: "Corpus requests received."},
	unitsTotal:      {Name: "units_total", Help: "Units named by batch requests, served from facts or computed."},
	factsHits:       {Name: "facts_hits", Help: "Corpus units served from the facts cache."},
	factsMisses:     {Name: "facts_misses", Help: "Corpus units computed for want of cached facts."},
	linkFactsHits:   {Name: "link_facts_hits", Help: "Link units whose facts came from the store."},
	linkFactsMisses: {Name: "link_facts_misses", Help: "Link units parsed to extract their facts."},
	linkFactsStale:  {Name: "link_facts_stale", Help: "Link misses whose stored facts failed their read-set check."},
}

// registry is every instrument superd exposes, in /metrics order.
var registry = stats.NewRegistry(slices.Concat(
	[][]stats.Desc{serverDescs, admissionFields.Descs()},
	harness.UnitDescs(),
	[][]stats.Desc{link.Fields.Descs(), hcache.Fields.Descs(), store.Fields.Descs()},
)...)

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

		counts: stats.NewCounterSet(numCounters),
		units:  stats.NewCounterSet(len(harness.UnitFields)),
		links:  stats.NewCounterSet(len(link.Fields)),
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

// ReadFile reads p beneath the root. An error names p, the request's path,
// as an in-process run's would, never the server's absolute path.
func (f rootFS) ReadFile(p string) ([]byte, error) {
	full, err := f.resolve(p)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(full)
	var pe *iofs.PathError
	if errors.As(err, &pe) {
		pe.Path = p
	}
	return data, err
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

// workers clamps a requested worker count to the server bound; 0 (or
// less) asks for def.
func (s *Server) workers(req, def int) int {
	if req <= 0 {
		req = def
	}
	return min(req, s.cfg.MaxJobs)
}

// pipeline is the pipeline block every batch request carries in its flat
// wire fields; each request type lifts its own into one with pipeline().
type pipeline struct {
	files, includePaths []string
	defines             map[string]string
	mode, opt           string
	single              bool
	jobs, parseWorkers  int
	limits              Limits
}

func (r *LintRequest) pipeline() pipeline {
	return pipeline{files: r.Files, includePaths: r.IncludePaths, defines: r.Defines,
		mode: r.Mode, jobs: r.Jobs, parseWorkers: r.ParseWorkers, limits: r.Limits}
}

func (r *ParseRequest) pipeline() pipeline {
	return pipeline{files: r.Files, includePaths: r.IncludePaths, defines: r.Defines,
		mode: r.Mode, opt: r.Opt, single: r.Single, jobs: r.Jobs, parseWorkers: r.ParseWorkers, limits: r.Limits}
}

func (r *LinkRequest) pipeline() pipeline {
	return pipeline{files: r.Files, includePaths: r.IncludePaths, defines: r.Defines,
		mode: r.Mode, jobs: r.Jobs, parseWorkers: r.ParseWorkers, limits: r.Limits}
}

func (r *CorpusRequest) pipeline() pipeline {
	return pipeline{mode: r.Mode, opt: r.Opt, single: r.Single,
		jobs: r.Jobs, parseWorkers: r.ParseWorkers, limits: r.Limits}
}

// resolve validates a request's pipeline block and turns it into the
// harness.RunConfig its units run under — names through the same lookups
// as the CLI flags, paths confined to the root, jobs and parse workers
// clamped (0 asks for -max-jobs and fmlr.AutoWorkers() respectively), the
// warm header cache attached (RunUnits drops it in
// single-configuration mode) and the per-unit limits clamped to the server
// caps.
func (s *Server) resolve(p pipeline) (harness.RunConfig, error) {
	mode, err := cli.ParseMode(p.mode)
	if err != nil {
		return harness.RunConfig{}, err
	}
	opts, err := cli.ParseLevel(p.opt)
	if err != nil {
		return harness.RunConfig{}, err
	}
	if err := checkLocal(p.files); err != nil {
		return harness.RunConfig{}, err
	}
	if err := checkLocal(p.includePaths); err != nil {
		return harness.RunConfig{}, err
	}
	opts.ParseWorkers = s.workers(p.parseWorkers, fmlr.AutoWorkers())
	return harness.RunConfig{
		Mode:         mode,
		Parser:       opts,
		Single:       p.single,
		Defines:      p.defines,
		Jobs:         s.workers(p.jobs, s.cfg.MaxJobs),
		IncludePaths: p.includePaths,
		HeaderCache:  s.hc,
		Budget:       Clamp(p.limits.ToGuard(), s.cfg.Caps),
	}, nil
}

// fold adds finished units to the harness_* totals every endpoint shares.
func (s *Server) fold(results []harness.UnitResult) {
	for i := range results {
		harness.UnitFields.Fold(s.units, &results[i])
	}
}

func (s *Server) handleLint(w http.ResponseWriter, r *http.Request) {
	s.counts.Inc(reqLint)
	var req LintRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	cfg, err := s.resolve(req.pipeline())
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if cfg.Analyzers, err = selectPasses(req.Passes); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if cfg.Analyzers == nil {
		cfg.Analyzers = passes.All()
	}
	cfg.Link = req.Link
	resp, results, ls := Lint(r.Context(), rootFS{s.cfg.Root}, req.Files, cfg)
	s.fold(results)
	s.counts.Add(unitsTotal, int64(len(req.Files)))
	if resp.Link != nil {
		link.Fields.Fold(s.links, &ls)
	}
	writeJSON(w, resp)
}

// Lint runs files through harness.RunUnits under cfg and builds each
// unit's LintUnit: cfg.Analyzers' diagnostics plus the stderr text clint
// prints. With cfg.Link the same parse also yields each unit's link facts,
// which Lint joins corpus-wide into the response's Link, returning the
// join's counters too. It is the one lint path behind /v1/lint and clint's
// in-process run, so both render the same bytes.
func Lint(ctx context.Context, fs preprocessor.FileSystem, files []string, cfg harness.RunConfig) (*LintResponse, []harness.UnitResult, link.Stats) {
	resp := &LintResponse{Units: make([]LintUnit, len(files))}
	results := harness.RunUnits(ctx, fs, files, cfg, func(i int, _ *core.Tool, res *core.Result, r *harness.UnitResult) {
		var errs strings.Builder
		for _, d := range res.Unit.Diags {
			if !d.Warning {
				fmt.Fprintf(&errs, "clint: %s\n", d)
			}
		}
		if res.AST == nil {
			fmt.Fprintf(&errs, "clint: %s: no configuration parsed successfully\n", r.File)
		}
		u := LintUnit{File: r.File, Errors: errs.String()}
		if a := r.Analysis; a != nil {
			u.Diags = make([]Diag, len(a.Diags))
			for j, d := range a.Diags {
				u.Diags[j] = FromAnalysis(d)
			}
			u.Stats = a.Stats
		}
		resp.Units[i] = u
	})
	facts := make([]*link.Facts, len(results))
	for i := range results {
		r := &results[i]
		if r.Err != "" {
			resp.Units[i] = LintUnit{File: r.File, Failed: true, Errors: fmt.Sprintf("clint: %s: %s\n", r.File, r.Err)}
		}
		facts[i] = r.LinkFacts
	}
	if !cfg.Link {
		return resp, results, link.Stats{}
	}
	var canon *hcache.Canon
	if cfg.HeaderCache != nil {
		canon = cfg.HeaderCache.Canon()
	}
	var ls link.Stats
	resp.Link, ls = join(facts, canon)
	return resp, results, ls
}

// join links the units' facts corpus-wide, in the given order (nil entries
// are units without facts), and converts the result to wire form. It is
// the one join behind /v1/link and Lint.
func join(facts []*link.Facts, canon *hcache.Canon) (*LinkResponse, link.Stats) {
	joined := make([]*link.Facts, 0, len(facts))
	for _, f := range facts {
		if f != nil {
			joined = append(joined, f)
		}
	}
	lr := link.Link(joined, canon)
	resp := &LinkResponse{Units: lr.Stats.Units, Symbols: lr.Stats.Symbols, Facts: lr.Stats.Facts,
		Findings: make([]LinkFinding, len(lr.Findings))}
	for i, f := range lr.Findings {
		resp.Findings[i] = FromLink(f)
	}
	return resp, lr.Stats
}

func (s *Server) handleParse(w http.ResponseWriter, r *http.Request) {
	s.counts.Inc(reqParse)
	var req ParseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	cfg, err := s.resolve(req.pipeline())
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	units, results := Parse(r.Context(), rootFS{s.cfg.Root}, req.Files, cfg, nil)
	s.fold(results)
	s.counts.Add(unitsTotal, int64(len(req.Files)))
	writeJSON(w, &ParseResponse{Units: units, TableCache: cgrammar.TableCacheState()})
}

// Parse runs files through harness.RunUnits under cfg and builds each
// unit's superc summary: timings excluded, space-tied parse diagnostics
// rendered while the unit's tool is live. each, when non-nil, then sees the
// live unit too (superc's -ast, -print, -rename, -project and -check). It
// is the one parse path behind /v1/parse and superc's in-process run, so
// both render the same bytes.
func Parse(ctx context.Context, fs preprocessor.FileSystem, files []string, cfg harness.RunConfig, each func(i int, tool *core.Tool, res *core.Result, r *harness.UnitResult)) ([]ParseUnit, []harness.UnitResult) {
	units := make([]ParseUnit, len(files))
	results := harness.RunUnits(ctx, fs, files, cfg, func(i int, tool *core.Tool, res *core.Result, m *harness.UnitResult) {
		u := ParseUnit{File: m.File, Pre: m.Pre, PreDiags: res.Unit.Diags, Killed: m.Killed, HasAST: res.AST != nil}
		u.Pre.LexTime = 0
		for _, d := range res.Parse.Diags {
			u.ParseErrs = append(u.ParseErrs, fmt.Sprintf("%s: parse error under %s: %s",
				d.Tok.Pos(), tool.Space().String(d.Cond), d.Msg))
		}
		u.Parse = parseStats(m)
		if u.HasAST {
			u.Parse.ASTNodes, u.Parse.ChoiceNodes = res.AST.Count(), res.AST.CountChoices()
		}
		units[i] = u
		if each != nil {
			each(i, tool, res, m)
		}
	})
	for i := range results {
		m := &results[i]
		if m.Err != "" {
			units[i] = ParseUnit{File: m.File, Err: m.Err}
		} else if m.Budget != nil {
			units[i].BudgetErr = fmt.Sprintf("%v", m.Budget)
		}
	}
	return units, results
}

func (s *Server) handleLink(w http.ResponseWriter, r *http.Request) {
	s.counts.Inc(reqLink)
	var req LinkRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	cfg, err := s.resolve(req.pipeline())
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	cfg.Link = true
	fs := rootFS{s.cfg.Root}
	fp := linkFingerprint(cfg)
	// One memo serves every worker, so each path is read and hashed, and
	// each probe checked, at most once per request.
	files := hcache.NewMemo(fs)
	facts := make([]*link.Facts, len(req.Files))
	results := make([]*harness.UnitResult, len(req.Files)) // nil: facts came from the store
	var stale atomic.Int64
	harness.Parallel(cfg.Jobs, len(req.Files), func(i int) {
		file := req.Files[i]
		// The key carries the configuration and the build; the entry
		// carries the unit's read set (the root file is one of its deps),
		// re-checked before its facts are served. A failed check recomputes
		// the unit and overwrites the entry.
		key := fp + "\x00" + file
		if s.cfg.Store != nil {
			if raw, ok := s.cfg.Store.Get(store.NSLink, key); ok {
				e, err := link.DecodeEntry(raw)
				switch {
				case err != nil:
					s.cfg.Store.Delete(store.NSLink, key)
				case !files.Holds(e.Deps, e.Probes):
					stale.Add(1)
				default:
					facts[i] = e.Facts
					return
				}
			}
		}
		// A miss runs as a batch of one on this worker, so its parse and
		// store write overlap the other workers' lookups (after all the
		// lookups, the misses' parses and fsyncs added about 6% to a warm
		// 200-unit request on 2 vCPUs). Budget-tripped extractions may be
		// truncated; only complete fact sets persist.
		results[i] = &harness.RunUnits(r.Context(), fs, []string{file}, cfg, func(_ int, tool *core.Tool, res *core.Result, m *harness.UnitResult) {
			if s.cfg.Store != nil && m.LinkFacts != nil && tool.Budget().Trip() == nil {
				e := link.Entry{Deps: res.Unit.Deps, Probes: res.Unit.Probes, Facts: m.LinkFacts}
				s.cfg.Store.Put(store.NSLink, key, e.Encode())
			}
		})[0]
		facts[i] = results[i].LinkFacts
	})
	resp, ls := join(facts, s.hc.Canon())
	for _, m := range results {
		if m == nil {
			resp.FactsHits++
			continue
		}
		resp.FactsMisses++
		harness.UnitFields.Fold(s.units, m)
		switch {
		case m.Err != "":
			resp.Failed = append(resp.Failed, LinkUnit{File: m.File, Errors: fmt.Sprintf("%s: %s\n", m.File, m.Err)})
		case m.LinkFacts == nil:
			resp.Failed = append(resp.Failed, LinkUnit{File: m.File, Errors: fmt.Sprintf("%s: no AST (parse failed)\n", m.File)})
		}
	}
	s.counts.Add(unitsTotal, int64(len(req.Files)))
	s.counts.Add(linkFactsHits, resp.FactsHits)
	s.counts.Add(linkFactsMisses, resp.FactsMisses)
	s.counts.Add(linkFactsStale, stale.Load())
	link.Fields.Fold(s.links, &ls)
	writeJSON(w, resp)
}

// buildID identifies the running build in the facts keys: the protocol
// Version plus the executable's size and modification time, read by one
// stat per process (ccache's compiler_check = mtime; hashing the binary
// would cost every start tens of milliseconds). A rebuilt binary, or
// another executable sharing the store, keys apart. Tests substitute it.
var buildID = sync.OnceValue(func() string {
	exe, err := os.Executable()
	if err != nil {
		return Version
	}
	fi, err := os.Stat(exe)
	if err != nil {
		return Version
	}
	return fmt.Sprintf("%s;exe=%d;mtime=%d", Version, fi.Size(), fi.ModTime().UnixNano())
})

// linkFingerprint keys the persisted link-fact cache: every resolved
// setting that affects one unit's extracted facts, plus the build identity
// (fact shapes and extraction change between builds). It is the JSON of one
// canonical struct — JSON quotes every string and sorts map keys, so no two
// configurations share a key, and an omitted mode keys like "bdd". Jobs and
// ParseWorkers are deliberately excluded — extraction is deterministic at
// any worker count.
func linkFingerprint(cfg harness.RunConfig) string {
	key := struct {
		Build        string
		Mode         cond.Mode
		IncludePaths []string
		Defines      map[string]string
		Limits       guard.Limits
	}{Build: buildID(), Mode: cfg.Mode, Limits: cfg.Budget}
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
	s.counts.Inc(reqCorpus)
	var req CorpusRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	cfg, err := s.resolve(req.pipeline())
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if cfg.Analyzers, err = selectPasses(req.Passes); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	c := corpus.Generate(corpus.Params{Seed: req.Seed, CFiles: req.CFiles, GenHeaders: req.Headers})
	fp := s.factsFingerprint(req, cfg.Budget)

	resp := CorpusResponse{Units: make([]CorpusUnit, len(c.CFiles))}
	var missing []int
	for i, f := range c.CFiles {
		if s.cfg.Store != nil && store.GetGob(s.cfg.Store, store.NSFacts, fp+"\x00"+f, &resp.Units[i]) {
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
		results, _ := harness.RunMetered(r.Context(), &sub, cfg)
		s.fold(results)
		for j, i := range missing {
			u := toCorpusUnit(&results[j])
			resp.Units[i] = u
			// A unit that errored (cancelled run, panic) is not a
			// deterministic fact; everything else is a pure function of
			// (corpus, config, limits, build) and may be served across
			// restarts.
			if s.cfg.Store != nil && u.Err == "" {
				store.PutGob(s.cfg.Store, store.NSFacts, fp+"\x00"+c.CFiles[i], &u)
			}
		}
	}
	s.counts.Add(factsHits, resp.FactsHits)
	s.counts.Add(factsMisses, resp.FactsMisses)
	s.counts.Add(unitsTotal, int64(len(c.CFiles)))
	writeJSON(w, &resp)
}

// factsFingerprint keys the facts cache: every request knob that affects a
// unit's deterministic result, plus the build identity (results change
// between builds). ParseWorkers is deliberately excluded: the
// region-parallel strategy is proven equivalent to sequential, so the
// deterministic facts are identical at every worker count.
func (s *Server) factsFingerprint(req CorpusRequest, limits guard.Limits) string {
	names := append([]string(nil), req.Passes...)
	sort.Strings(names)
	return fmt.Sprintf("%s;seed=%d;cfiles=%d;headers=%d;mode=%s;opt=%s;single=%t;passes=%s;limits=%+v",
		buildID(), req.Seed, req.CFiles, req.Headers, req.Mode, req.Opt, req.Single,
		strings.Join(names, ","), limits)
}

// parseStats is the wire summary of a measured unit's parse.
func parseStats(r *harness.UnitResult) ParseStats {
	p := &r.Parse
	return ParseStats{Iterations: p.Iterations, MaxSubparsers: p.MaxSubparsers,
		P99: stats.Hist(p.SubparserHist).Percentile(0.99), Forks: p.Forks, Merges: p.Merges,
		TypedefForks: p.TypedefForks, ChoiceNodes: r.ChoiceNodes}
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
		Parse:     parseStats(r),
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

// snapshot reads every instrument: the server's own counters, admission,
// the shared unit and link totals, and the header cache and store.
func (s *Server) snapshot() stats.Snapshot {
	hc := s.hc.Stats()
	var st store.Snapshot
	if s.cfg.Store != nil {
		st = s.cfg.Store.Stats()
	}
	return registry.Snapshot(s.counts.Snapshot(), admissionFields.Values(s.adm), s.units.Snapshot(),
		s.links.Snapshot(), hcache.Fields.Values(&hc), store.Fields.Values(&st))
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, &StatsResponse{
		Version:  Version,
		Uptime:   time.Since(s.start).Round(time.Millisecond).String(),
		Counters: s.snapshot().Map(),
	})
}

// handleMetrics renders the snapshot in Prometheus text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = s.snapshot().WritePrometheus(w, "superd_") // a failed write means the scraper hung up
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
