package main

import (
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/hcache"
	"repro/internal/link"
)

// layerCounts are the counters a unit's condition space keeps; they are read
// once the unit is done, from the calls core.Tool exposes.
type layerCounts struct {
	bddNodes, bddHits, bddMisses int64
	condOps, condFast            int64
}

func countLayers(tool *core.Tool) layerCounts {
	var c layerCounts
	if f := tool.Space().BDD(); f != nil {
		s := f.Stats()
		c.bddNodes, c.bddHits, c.bddMisses = int64(s.Nodes), s.OpHits, s.OpMisses
	}
	c.condOps = atomic.LoadInt64(&tool.Space().Hot.Ops)
	c.condFast = atomic.LoadInt64(&tool.Space().Hot.FastPaths)
	return c
}

// perLayer is one traced round's per-layer metrics by name. Every workload
// reports every name; a layer the workload does not exercise reads 0.
type perLayer map[string]float64

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// addChain fills the metrics of the in-process chain's layers from the
// spans of op ("" for all) and the units' own counters.
func (m perLayer) addChain(tr *tracer, op string, outs []unitOut) {
	self := tr.selfTime(op)
	var lex time.Duration
	var bytes, tokens float64
	var forks, merges, maxSub, streamed, materialized, fallbacks, followHit, followMiss float64
	var lc layerCounts
	var diags, witnessFailures float64
	for i := range outs {
		o := &outs[i]
		lex += o.pre.LexTime
		bytes += float64(o.pre.Bytes)
		tokens += float64(o.pre.Tokens)
		p := o.parse
		forks += float64(p.Forks)
		merges += float64(p.Merges)
		maxSub = max(maxSub, float64(p.MaxSubparsers))
		streamed += float64(p.TokensStreamed)
		materialized += float64(p.TokensMaterialized)
		fallbacks += float64(p.StreamFallbacks)
		followHit += float64(p.FollowHits)
		followMiss += float64(p.FollowMisses)
		lc.bddNodes += o.layers.bddNodes
		lc.bddHits += o.layers.bddHits
		lc.bddMisses += o.layers.bddMisses
		lc.condOps += o.layers.condOps
		lc.condFast += o.layers.condFast
		if o.result != nil {
			diags += float64(len(o.result.Diags))
			witnessFailures += float64(o.result.Stats.WitnessFailures)
		}
	}
	chain := msOf(tr.total("unit", op))
	m["core.new_ms"] = msOf(self["core.New"])
	m["lexer.busy_ms"] = msOf(lex)
	m["lexer.mb_per_s"] = ratio(bytes/1e6, lex.Seconds())
	pre := self["preprocess"] - lex
	m["preprocessor.busy_ms"] = msOf(pre)
	m["preprocessor.share"] = ratio(msOf(pre), chain)
	m["preprocessor.tokens"] = tokens
	m["fmlr.busy_ms"] = msOf(self["parse"])
	m["fmlr.share"] = ratio(msOf(self["parse"]), chain)
	m["fmlr.forks"] = forks
	m["fmlr.merges"] = merges
	m["fmlr.max_subparsers"] = maxSub
	m["fmlr.stream_share"] = ratio(streamed, streamed+materialized)
	m["fmlr.stream_fallbacks"] = fallbacks
	m["fmlr.follow_hit_ratio"] = ratio(followHit, followHit+followMiss)
	m["bdd.nodes"] = float64(lc.bddNodes)
	m["bdd.op_hit_ratio"] = ratio(float64(lc.bddHits), float64(lc.bddHits+lc.bddMisses))
	m["cond.fastpath_ratio"] = ratio(float64(lc.condFast), float64(lc.condOps))
	m["analysis.busy_ms"] = msOf(self["analysis"])
	m["analysis.share"] = ratio(msOf(self["analysis"]), chain)
	m["analysis.diags"] = diags
	m["analysis.witness_failures"] = witnessFailures
	m["link.extract_busy_ms"] = msOf(self["extract"])
	m["link.extract_share"] = ratio(msOf(self["extract"]), chain)
}

// addLink fills the join's metrics.
func (m perLayer) addLink(tr *tracer, lr *link.Result) {
	m["link.join_ms"] = msOf(tr.total("link", ""))
	m["link.facts"] = float64(lr.Stats.Facts)
	m["link.findings"] = float64(lr.Stats.Findings)
	m["link.sat_checks"] = float64(lr.Stats.SATChecks)
	m["link.witness_failures"] = float64(lr.Stats.WitnessFailures)
}

// addHeaderCache fills the header-cache ratios from a counter delta.
func (m perLayer) addHeaderCache(d hcache.Snapshot) {
	m["hcache.header_hit_ratio"] = ratio(float64(d.HeaderHits), float64(d.HeaderHits+d.HeaderMisses))
	m["hcache.lex_hit_ratio"] = ratio(float64(d.LexHits), float64(d.LexHits+d.LexMisses))
	m["hcache.bytes_saved"] = float64(d.BytesSaved)
}
