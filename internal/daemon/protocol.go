// Package daemon implements the superd parse server and its thin client.
//
// The daemon keeps a corpus warm across requests: one process-wide header
// cache (internal/hcache), optionally backed by the on-disk artifact store
// (internal/store), plus a facts cache of per-unit corpus results, serve
// repeat batches without re-preprocessing shared headers or re-parsing
// unchanged units. Clients (superc, clint, cstats with -daemon) send batch
// requests over HTTP+JSON — on a unix socket or a TCP loopback address —
// and render the structured results locally with the same code paths as
// their in-process modes, so daemon-served output is byte-identical to a
// local run.
//
// Endpoints:
//
//	POST /v1/lint    clint batches: analysis diagnostics per unit, plus the
//	                 cross-unit link findings of the same parse on request
//	POST /v1/parse   superc batches: parse summaries per unit
//	POST /v1/link    whole-corpus link analysis over the persisted facts
//	                 store: cross-unit findings only
//	POST /v1/corpus  harness runs over the synthetic corpus (cstats, bench)
//	GET  /v1/stats   JSON snapshot of cache/store/server counters
//	GET  /metrics    the same counters in Prometheus text format
//	GET  /healthz    liveness + protocol version
//
// Requests carry per-request guard.Limits as a quality-of-service bound;
// the server clamps them against its own -timeout/-budget-* caps so one
// client cannot monopolize the worker pool with an unbounded unit.
package daemon

import (
	"time"

	"repro/internal/analysis"
	"repro/internal/guard"
	"repro/internal/link"
	"repro/internal/preprocessor"
)

// Version gates protocol compatibility between client and server; bump on
// any wire-visible change.
const Version = "superd/v2"

// DeadlineHeader carries the client's remaining per-request deadline in
// milliseconds. The server folds it into the request context, so the guard
// budgets of every unit in the batch observe the client's deadline and the
// admission queue never holds work the client has already abandoned.
const DeadlineHeader = "X-Superd-Deadline-Ms"

// Limits is the wire form of guard.Limits.
type Limits struct {
	WallMS     int64 `json:"wallMs,omitempty"`
	Tokens     int64 `json:"tokens,omitempty"`
	MacroSteps int64 `json:"macroSteps,omitempty"`
	Hoist      int64 `json:"hoist,omitempty"`
	BDDNodes   int64 `json:"bddNodes,omitempty"`
	Subparsers int64 `json:"subparsers,omitempty"`
}

// FromGuard converts resolved limits to the wire form.
func FromGuard(l guard.Limits) Limits {
	return Limits{
		WallMS:     l.Wall.Milliseconds(),
		Tokens:     l.Tokens,
		MacroSteps: l.MacroSteps,
		Hoist:      l.Hoist,
		BDDNodes:   l.BDDNodes,
		Subparsers: l.Subparsers,
	}
}

// ToGuard converts wire limits back to guard.Limits.
func (l Limits) ToGuard() guard.Limits {
	return guard.Limits{
		Wall:       time.Duration(l.WallMS) * time.Millisecond,
		Tokens:     l.Tokens,
		MacroSteps: l.MacroSteps,
		Hoist:      l.Hoist,
		BDDNodes:   l.BDDNodes,
		Subparsers: l.Subparsers,
	}
}

// clampAxis applies a server cap to one requested ceiling: an unlimited
// request (0) gets the cap, a request beyond the cap is cut to it.
func clampAxis(req, cap int64) int64 {
	if cap <= 0 {
		return req
	}
	if req <= 0 || req > cap {
		return cap
	}
	return req
}

// Clamp bounds requested limits by the server's caps, axis by axis.
func Clamp(req, caps guard.Limits) guard.Limits {
	return guard.Limits{
		Wall:       time.Duration(clampAxis(int64(req.Wall), int64(caps.Wall))),
		Tokens:     clampAxis(req.Tokens, caps.Tokens),
		MacroSteps: clampAxis(req.MacroSteps, caps.MacroSteps),
		Hoist:      clampAxis(req.Hoist, caps.Hoist),
		BDDNodes:   clampAxis(req.BDDNodes, caps.BDDNodes),
		Subparsers: clampAxis(req.Subparsers, caps.Subparsers),
	}
}

// Diag is an analysis diagnostic with its presence condition rendered to a
// string — conditions are space-tied and never cross the wire.
type Diag struct {
	Pass            string          `json:"pass"`
	File            string          `json:"file"`
	Line            int             `json:"line"`
	Col             int             `json:"col"`
	Msg             string          `json:"msg"`
	CondStr         string          `json:"cond"`
	Witness         map[string]bool `json:"witness,omitempty"`
	WitnessVerified bool            `json:"witnessVerified"`
}

// ToAnalysis rebuilds the client-side analysis.Diagnostic (Cond stays nil:
// every renderer reads CondStr).
func (d Diag) ToAnalysis() analysis.Diagnostic {
	return analysis.Diagnostic{
		Pass:            d.Pass,
		File:            d.File,
		Line:            d.Line,
		Col:             d.Col,
		Msg:             d.Msg,
		CondStr:         d.CondStr,
		Witness:         d.Witness,
		WitnessVerified: d.WitnessVerified,
	}
}

// FromAnalysis converts a server-side diagnostic to the wire form.
func FromAnalysis(d analysis.Diagnostic) Diag {
	return Diag{
		Pass:            d.Pass,
		File:            d.File,
		Line:            d.Line,
		Col:             d.Col,
		Msg:             d.Msg,
		CondStr:         d.CondStr,
		Witness:         d.Witness,
		WitnessVerified: d.WitnessVerified,
	}
}

// LintRequest is one clint batch: analyze Files (relative to the server's
// root) under the given configuration.
type LintRequest struct {
	Files        []string          `json:"files"`
	IncludePaths []string          `json:"includePaths,omitempty"`
	Defines      map[string]string `json:"defines,omitempty"`
	Mode         string            `json:"mode"` // "bdd" or "sat"
	Passes       []string          `json:"passes,omitempty"`
	Jobs         int               `json:"jobs,omitempty"`
	// ParseWorkers enables intra-unit region-parallel parsing per unit
	// (clamped by the server like Jobs; 0 = sequential).
	ParseWorkers int    `json:"parseWorkers,omitempty"`
	Limits       Limits `json:"limits,omitempty"`
	// Link also extracts every unit's conditional link facts from the same
	// parse and joins them corpus-wide into LintResponse.Link (clint -link).
	Link bool `json:"link,omitempty"`
}

// LintUnit is one file's lint outcome. Failed units carry the rendered
// error text in Errors and no diagnostics.
type LintUnit struct {
	File   string         `json:"file"`
	Failed bool           `json:"failed,omitempty"`
	Errors string         `json:"errors,omitempty"` // stderr text, newline-terminated lines
	Diags  []Diag         `json:"diags"`
	Stats  analysis.Stats `json:"stats"`
}

// LintResponse carries one unit per requested file, in request order.
// Link is the corpus-wide join when the request set Link: its findings and
// fact-volume stats, with no Failed units (Units reports those) and no
// facts-store counters.
type LintResponse struct {
	Units []LintUnit    `json:"units"`
	Link  *LinkResponse `json:"link,omitempty"`
}

// LinkRequest is one whole-corpus link batch: parse every file, extract
// conditional link facts, and join them into cross-unit findings. Per-unit
// facts persist in the artifact store (namespace "link") keyed by the
// request fingerprint plus each root file's content hash, so warm batches
// skip re-parsing unchanged units.
type LinkRequest struct {
	Files        []string          `json:"files"`
	IncludePaths []string          `json:"includePaths,omitempty"`
	Defines      map[string]string `json:"defines,omitempty"`
	Mode         string            `json:"mode"` // "bdd" or "sat"
	Jobs         int               `json:"jobs,omitempty"`
	// ParseWorkers enables intra-unit region-parallel parsing per unit
	// (clamped by the server like Jobs; 0 = sequential).
	ParseWorkers int    `json:"parseWorkers,omitempty"`
	Limits       Limits `json:"limits,omitempty"`
	// NoFacts bypasses the persisted link-fact cache (for measuring cold
	// runs and for determinism tests that compare cached vs. fresh).
	NoFacts bool `json:"noFacts,omitempty"`
}

// LinkFinding is the wire form of link.Finding. The space-tied Cond never
// crosses the wire; CondStr and the witness assignment carry everything
// clients render, and ToLink rebuilds a link.Finding the client feeds
// through the same merge path as an in-process run, so daemon-served link
// output is byte-identical to local output.
type LinkFinding struct {
	Family          string          `json:"family"`
	Symbol          string          `json:"symbol"`
	Unit            string          `json:"unit"`
	File            string          `json:"file"`
	Line            int             `json:"line"`
	Col             int             `json:"col"`
	OtherUnit       string          `json:"otherUnit,omitempty"`
	OtherFile       string          `json:"otherFile,omitempty"`
	OtherLine       int             `json:"otherLine,omitempty"`
	OtherCol        int             `json:"otherCol,omitempty"`
	SigA            string          `json:"sigA,omitempty"`
	SigB            string          `json:"sigB,omitempty"`
	CondStr         string          `json:"cond"`
	Witness         map[string]bool `json:"witness,omitempty"`
	WitnessVerified bool            `json:"witnessVerified"`
}

// FromLink converts a server-side finding to the wire form.
func FromLink(f link.Finding) LinkFinding {
	return LinkFinding{
		Family:          f.Family,
		Symbol:          f.Symbol,
		Unit:            f.Unit,
		File:            f.File,
		Line:            f.Line,
		Col:             f.Col,
		OtherUnit:       f.OtherUnit,
		OtherFile:       f.OtherFile,
		OtherLine:       f.OtherLine,
		OtherCol:        f.OtherCol,
		SigA:            f.SigA,
		SigB:            f.SigB,
		CondStr:         f.CondStr,
		Witness:         f.Witness,
		WitnessVerified: f.WitnessVerified,
	}
}

// ToLink rebuilds the client-side link.Finding (Cond stays nil: renderers
// read CondStr, exactly like Diag.ToAnalysis).
func (f LinkFinding) ToLink() link.Finding {
	return link.Finding{
		Family:          f.Family,
		Symbol:          f.Symbol,
		Unit:            f.Unit,
		File:            f.File,
		Line:            f.Line,
		Col:             f.Col,
		OtherUnit:       f.OtherUnit,
		OtherFile:       f.OtherFile,
		OtherLine:       f.OtherLine,
		OtherCol:        f.OtherCol,
		SigA:            f.SigA,
		SigB:            f.SigB,
		CondStr:         f.CondStr,
		Witness:         f.Witness,
		WitnessVerified: f.WitnessVerified,
	}
}

// LinkUnit reports one file that failed to parse or extract; units that
// succeed contribute facts to the joined findings and are not listed.
type LinkUnit struct {
	File   string `json:"file"`
	Errors string `json:"errors,omitempty"` // rendered error text, newline-terminated lines
}

// LinkResponse carries the joined corpus-wide findings in the linker's
// total deterministic order, plus fact-volume stats and per-unit failures.
type LinkResponse struct {
	Units    int           `json:"units"`   // units contributing facts
	Symbols  int           `json:"symbols"` // distinct external symbols joined
	Facts    int           `json:"facts"`   // total conditional facts joined
	Findings []LinkFinding `json:"findings"`
	Failed   []LinkUnit    `json:"failed,omitempty"`
	// FactsHits counts units whose facts were served from the persisted
	// link-fact store; FactsMisses counts units extracted this request.
	FactsHits   int64 `json:"factsHits"`
	FactsMisses int64 `json:"factsMisses"`
}

// ParseRequest is one superc batch (summary mode: the daemon serves parse
// statistics and diagnostics; AST printing, projection, and refactoring
// stay in-process).
type ParseRequest struct {
	Files        []string          `json:"files"`
	IncludePaths []string          `json:"includePaths,omitempty"`
	Defines      map[string]string `json:"defines,omitempty"`
	Mode         string            `json:"mode"` // "bdd" or "sat"
	Opt          string            `json:"opt"`  // fmlr optimization level name
	Single       bool              `json:"single,omitempty"`
	Jobs         int               `json:"jobs,omitempty"`
	// ParseWorkers enables intra-unit region-parallel parsing per unit
	// (clamped by the server like Jobs; 0 = sequential).
	ParseWorkers int    `json:"parseWorkers,omitempty"`
	Limits       Limits `json:"limits,omitempty"`
}

// ParseStats is the deterministic subset of fmlr.Stats plus AST counts.
type ParseStats struct {
	Iterations    int `json:"iterations"`
	MaxSubparsers int `json:"maxSubparsers"`
	P99           int `json:"p99"`
	Forks         int `json:"forks"`
	Merges        int `json:"merges"`
	TypedefForks  int `json:"typedefForks"`
	ASTNodes      int `json:"astNodes"`
	ChoiceNodes   int `json:"choiceNodes"`
}

// ParseUnit is one file's parse outcome. Space-tied diagnostics arrive
// pre-rendered; everything else is structured so the client renders with
// its own code.
type ParseUnit struct {
	File      string                    `json:"file"`
	Err       string                    `json:"err,omitempty"` // unit could not be processed at all
	Pre       preprocessor.UnitStats    `json:"pre"`           // timings zeroed: unstable across runs
	PreDiags  []preprocessor.Diagnostic `json:"preDiags,omitempty"`
	ParseErrs []string                  `json:"parseErrs,omitempty"` // rendered "pos: parse error under C: msg"
	Parse     ParseStats                `json:"parse"`
	HasAST    bool                      `json:"hasAST"`
	Killed    bool                      `json:"killed,omitempty"`
	BudgetErr string                    `json:"budgetErr,omitempty"` // rendered guard.Diagnostic, "" if none
}

// ParseResponse carries one unit per requested file, in request order.
// TableCache is the daemon's parse-table cache state (the client has no
// tables loaded of its own in daemon mode).
type ParseResponse struct {
	Units      []ParseUnit `json:"units"`
	TableCache string      `json:"tableCache"`
}

// CorpusRequest runs the evaluation harness over the deterministic
// synthetic corpus (corpus.Generate is a pure function of the params, so
// results are cacheable across daemon restarts as facts).
type CorpusRequest struct {
	Seed    int64    `json:"seed"`
	CFiles  int      `json:"cfiles"`
	Headers int      `json:"headers"`
	Mode    string   `json:"mode"` // "bdd" or "sat"
	Opt     string   `json:"opt"`  // fmlr optimization level name
	Single  bool     `json:"single,omitempty"`
	Passes  []string `json:"passes,omitempty"` // analysis passes; empty = none
	Jobs    int      `json:"jobs,omitempty"`
	// ParseWorkers enables intra-unit region-parallel parsing per unit
	// (clamped by the server like Jobs; 0 = sequential).
	ParseWorkers int    `json:"parseWorkers,omitempty"`
	Limits       Limits `json:"limits,omitempty"`
	// NoFacts bypasses the per-unit facts cache (for measuring cold runs).
	NoFacts bool `json:"noFacts,omitempty"`
}

// CorpusUnit is the deterministic subset of harness.UnitResult: everything
// the table renderers and differential tests read, none of the timings or
// pool/cache counters that vary run to run.
type CorpusUnit struct {
	File        string                 `json:"file"`
	Bytes       int                    `json:"bytes"`
	Tokens      int                    `json:"tokens"`
	Pre         preprocessor.UnitStats `json:"pre"` // LexTime zeroed
	Parse       ParseStats             `json:"parse"`
	Killed      bool                   `json:"killed,omitempty"`
	ParseFail   bool                   `json:"parseFail,omitempty"`
	Err         string                 `json:"err,omitempty"`
	Diags       []Diag                 `json:"diags,omitempty"`
	Stats       analysis.Stats         `json:"stats"`
	HasAnalysis bool                   `json:"hasAnalysis,omitempty"`
}

// CorpusResponse carries one unit per corpus file, in corpus order.
type CorpusResponse struct {
	Units []CorpusUnit `json:"units"`
	// FactsHits counts units served from the persisted facts cache without
	// recomputation; FactsMisses counts units computed this request.
	FactsHits   int64 `json:"factsHits"`
	FactsMisses int64 `json:"factsMisses"`
}

// StatsResponse is the /v1/stats snapshot.
type StatsResponse struct {
	Version  string           `json:"version"`
	Uptime   string           `json:"uptime"`
	Counters map[string]int64 `json:"counters"`
}

// HealthResponse is the /healthz body. OK is liveness (the process serves
// HTTP); Ready is readiness (new work would be admitted rather than shed) —
// it flips false during drain and overload. GET /healthz?probe=readiness
// additionally reports not-ready as 503, for load balancers that read only
// the status code.
type HealthResponse struct {
	OK      bool   `json:"ok"`
	Ready   bool   `json:"ready"`
	Version string `json:"version"`
}
