package harness

import (
	"slices"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/passes"
	"repro/internal/fmlr"
	"repro/internal/guard"
	"repro/internal/hcache"
	"repro/internal/link"
	"repro/internal/stats"
	"repro/internal/store"
)

// Metrics is one run's observability snapshot: every instrument of the run
// registry (get one with Get, render all with String), plus the run's
// payload that is not a number.
type Metrics struct {
	stats.Snapshot
	// Quarantined lists the quarantined unit paths, sorted.
	Quarantined []string
	// LinkResult holds the whole-corpus link findings in total
	// deterministic order, with their conditions in its own space (nil
	// unless RunConfig.Link).
	LinkResult *link.Result
}

// String renders the block cmd/fmlrbench and cstats -metrics print.
func (m Metrics) String() string {
	var b strings.Builder
	b.WriteString("harness metrics\n")
	b.WriteString(m.Snapshot.String())
	for _, q := range m.Quarantined {
		b.WriteString("  quarantined: " + q + "\n")
	}
	return b.String()
}

// UnitGroups declare the per-unit instruments, one group per layer (one
// line each of the text block). Every finished unit folds through them, in
// RunMetered and at each superd endpoint, so a harness_* name means the
// same thing on every surface.
var UnitGroups = []stats.Fields[UnitResult]{
	{
		count("harness_units", "Units processed.", func(*UnitResult) int { return 1 }),
		count("harness_failed_units", "Units that failed: no AST, a panic, a preprocessing error or cancellation.",
			func(r *UnitResult) int { return flag(r.ParseFail || r.Err != "") }),
		count("harness_killed_units", "Units that tripped the subparser kill switch.", func(r *UnitResult) int { return flag(r.Killed) }),
		count("harness_retried_units", "Units whose recorded result is a quarantine retry.", func(r *UnitResult) int { return flag(r.Retried) }),
		count("harness_quarantined_units", "Units that failed both attempts.", func(r *UnitResult) int { return flag(r.Quarantined) }),
	},
	guardFields(),
	{
		stats.NewField("harness_lex_ns", stats.KindDuration, "Lexing time summed over units.", func(r *UnitResult) int64 { return int64(r.LexTime) }),
		stats.NewField("harness_preprocess_ns", stats.KindDuration, "Preprocessing time excluding lexing, summed over units.", func(r *UnitResult) int64 { return int64(r.PreTime) }),
		stats.NewField("harness_parse_ns", stats.KindDuration, "Parsing time summed over units.", func(r *UnitResult) int64 { return int64(r.ParseTime) }),
	},
	{
		count("harness_forks", "Subparser forks.", func(r *UnitResult) int { return r.Parse.Forks }),
		count("harness_typedef_forks", "Forks forced by ambiguously-defined names.", func(r *UnitResult) int { return r.Parse.TypedefForks }),
		count("harness_merges", "Subparser merges.", func(r *UnitResult) int { return r.Parse.Merges }),
		count("harness_bdd_nodes", "Presence-condition BDD nodes allocated.", func(r *UnitResult) int { return r.BDDNodes }),
	},
	{
		count("harness_follow_hits", "Follow-set memo hits.", func(r *UnitResult) int { return r.Parse.FollowHits }),
		count("harness_follow_misses", "Follow-set memo misses.", func(r *UnitResult) int { return r.Parse.FollowMisses }),
		count("harness_subparser_reuses", "Subparsers recycled from the free list.", func(r *UnitResult) int { return r.Parse.SubparserReuses }),
		count("harness_subparser_allocs", "Subparsers allocated.", func(r *UnitResult) int { return r.Parse.SubparserAllocs }),
		stats.NewField("harness_bdd_op_hits", stats.KindCounter, "BDD op-cache hits.", func(r *UnitResult) int64 { return r.BDDOpHits }),
		stats.NewField("harness_bdd_op_misses", stats.KindCounter, "BDD op-cache misses.", func(r *UnitResult) int64 { return r.BDDOpMisses }),
		stats.NewField("harness_bdd_op_evictions", stats.KindCounter, "BDD op-cache evictions.", func(r *UnitResult) int64 { return r.BDDOpEvictions }),
		stats.NewField("harness_cond_ops", stats.KindCounter, "Presence-condition operations issued by the parser stack.", func(r *UnitResult) int64 { return r.CondOps }),
		stats.NewField("harness_cond_fast_paths", stats.KindCounter, "Condition operations resolved before reaching the BDD.", func(r *UnitResult) int64 { return r.CondFastPaths }),
	},
	{
		count("harness_tokens_streamed", "Tokens parsed straight off chunk runs.", func(r *UnitResult) int { return r.Parse.TokensStreamed }),
		count("harness_tokens_materialized", "Tokens parsed through forest elements.", func(r *UnitResult) int { return r.Parse.TokensMaterialized }),
		count("harness_stream_fallbacks", "Stream fast-path bail-outs to the element path.", func(r *UnitResult) int { return r.Parse.StreamFallbacks }),
		stats.NewField("harness_stream_bytes_avoided", stats.KindCounter, "Estimated forest bytes never allocated thanks to streaming.",
			func(r *UnitResult) int64 { return int64(r.Parse.TokensStreamed) * fmlr.BytesPerStreamedToken }),
	},
	analysisFields(),
}

// UnitFields is UnitGroups end to end: the slot order of the CounterSet a
// caller folds units into.
var UnitFields = slices.Concat(UnitGroups...)

// UnitDescs returns UnitGroups' declarations, group by group.
func UnitDescs() [][]stats.Desc {
	out := make([][]stats.Desc, len(UnitGroups))
	for i, g := range UnitGroups {
		out[i] = g.Descs()
	}
	return out
}

func count(name, help string, get func(*UnitResult) int) stats.Field[UnitResult] {
	return stats.NewField(name, stats.KindCounter, help, func(r *UnitResult) int64 { return int64(get(r)) })
}

func flag(b bool) int { return int(stats.Flag(b)) }

// guardFields counts budget trips, in total and per guard axis.
func guardFields() stats.Fields[UnitResult] {
	fs := stats.Fields[UnitResult]{
		count("harness_budget_trips", "Units that tripped a resource budget and degraded.", func(r *UnitResult) int { return flag(r.Budget != nil) }),
	}
	for a := guard.AxisNone + 1; a < guard.NumAxes; a++ {
		fs = append(fs, count("harness_trips_"+metricName(a.String()), "Budget trips on the "+a.String()+" axis.",
			func(r *UnitResult) int { return flag(r.Budget != nil && r.Budget.Axis == a) }))
	}
	return fs
}

// analysisFields counts the analysis driver's work, plus diagnostics per
// built-in pass; units that ran no analysis count zero.
func analysisFields() stats.Fields[UnitResult] {
	an := func(name, help string, get func(*analysis.Stats) int) stats.Field[UnitResult] {
		return count(name, help, func(r *UnitResult) int {
			if r.Analysis == nil {
				return 0
			}
			return get(&r.Analysis.Stats)
		})
	}
	fs := stats.Fields[UnitResult]{
		an("harness_analysis_passes", "Analysis passes run.", func(s *analysis.Stats) int { return s.PassesRun }),
		an("harness_analysis_diags", "Analysis diagnostics reported.", func(s *analysis.Stats) int { return s.Diagnostics }),
		an("harness_witness_checks", "Diagnostic witnesses extracted and re-verified.", func(s *analysis.Stats) int { return s.WitnessChecks }),
		an("harness_witness_failures", "Diagnostic witnesses the independent SAT check rejected.", func(s *analysis.Stats) int { return s.WitnessFailures }),
		an("harness_infeasible_dropped", "Diagnostics dropped for unsatisfiable conditions.", func(s *analysis.Stats) int { return s.InfeasibleDropped }),
		an("harness_error_regions_skipped", "Opaque _Error regions analysis refused to enter.", func(s *analysis.Stats) int { return s.ErrorRegions }),
	}
	for _, p := range passes.All() {
		fs = append(fs, an("harness_analysis_diags_"+p.Name, "Diagnostics reported by the "+p.Name+" pass.",
			func(s *analysis.Stats) int { return s.ByPass[p.Name] }))
	}
	return fs
}

// metricName turns a display name ("wall-clock") into a metric name part.
func metricName(s string) string { return strings.ReplaceAll(s, "-", "_") }

// runTotals are the run-level values RunMetered measures itself.
type runTotals struct{ jobs, maxInFlight, wallNS, tableCacheHits, tableCacheMisses int64 }

var runFields = stats.Fields[runTotals]{
	stats.NewField("harness_jobs", stats.KindGauge, "Effective worker-pool width.", func(t *runTotals) int64 { return t.jobs }),
	stats.NewField("harness_max_in_flight", stats.KindGauge, "Most units processing at once.", func(t *runTotals) int64 { return t.maxInFlight }),
	stats.NewField("harness_wall_ns", stats.KindDuration, "Elapsed time of the run.", func(t *runTotals) int64 { return t.wallNS }),
	stats.NewField("table_cache_hits", stats.KindCounter, "Parse-table loads served from the table cache in this process.", func(t *runTotals) int64 { return t.tableCacheHits }),
	stats.NewField("table_cache_misses", stats.KindCounter, "Parse-table loads that rebuilt the tables in this process.", func(t *runTotals) int64 { return t.tableCacheMisses }),
}

// runRegistry is every instrument a run reports, in text-block order.
var runRegistry = stats.NewRegistry(slices.Concat(
	[][]stats.Desc{runFields.Descs()},
	UnitDescs(),
	[][]stats.Desc{link.Fields.Descs(), hcache.Fields.Descs(), store.Fields.Descs()},
)...)

// snapshot reads a run's totals with the current counters of its header
// cache and store (zero when it has none); RunMetered reports the change
// across the run.
func snapshot(run runTotals, units []int64, ls link.Stats, hc *hcache.Cache, st *store.Store) stats.Snapshot {
	var h hcache.Snapshot
	var s store.Snapshot
	if hc != nil {
		h = hc.Stats()
	}
	if st != nil {
		s = st.Stats()
	}
	return runRegistry.Snapshot(runFields.Values(&run), units, link.Fields.Values(&ls), hcache.Fields.Values(&h), store.Fields.Values(&s))
}
