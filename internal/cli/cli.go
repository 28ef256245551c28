// Package cli declares the pipeline flags the SuperC command-line tools
// share — -I, -D, -mode, -opt, -j, -parse-workers, -store and the per-unit
// budget flags (-timeout, -budget-*) — and resolves them in one place into
// the harness.RunConfig every tool's units run under. superc, clint, cstats
// and fmlrbench register them through Options.RegisterFlags, and the superd
// handlers resolve the same settings from the wire through ParseMode and
// ParseLevel, so the experimental axes (BDD vs SAT conditions, Figure 8's
// optimization levels) have one spelling everywhere.
package cli

import (
	"flag"
	"fmt"
	"strings"

	"repro/internal/cond"
	"repro/internal/fmlr"
	"repro/internal/guard"
	"repro/internal/harness"
	"repro/internal/hcache"
	"repro/internal/preprocessor"
	"repro/internal/store"
)

// Flags selects the optional flag groups a tool declares; -j,
// -parse-workers and the budget flags are declared by every tool.
type Flags uint

const (
	// Config declares -I, -D and -mode: the unit's configuration space.
	Config Flags = 1 << iota
	// Opt declares -opt: the parser optimization level (Figure 8).
	Opt
	// Store declares -store: the on-disk backing of the header cache.
	Store
)

// Options holds the shared pipeline flags' values.
type Options struct {
	IncludePaths []string // -I, repeatable
	Defines      []string // -D NAME[=VALUE], repeatable
	Mode         string   // -mode: a ParseMode name
	Opt          string   // -opt: a ParseLevel name
	Jobs         int      // -j: worker-pool width (0: GOMAXPROCS)
	ParseWorkers int      // -parse-workers (0: fmlr.AutoWorkers)
	Store        string   // -store: artifact store directory

	limits *guard.Limits // -timeout, -budget-*: set by RegisterFlags
}

// RegisterFlags declares the selected flags on fs. jobsFor completes the
// -j help ("worker-pool width <jobsFor>") and unit names what
// -parse-workers splits ("file" or "unit").
func (o *Options) RegisterFlags(fs *flag.FlagSet, groups Flags, jobsFor, unit string) {
	if groups&Config != 0 {
		fs.Func("I", "include search path (repeatable)", func(v string) error {
			o.IncludePaths = append(o.IncludePaths, v)
			return nil
		})
		fs.Func("D", "macro definition NAME or NAME=VALUE (repeatable)", func(v string) error {
			o.Defines = append(o.Defines, v)
			return nil
		})
		fs.StringVar(&o.Mode, "mode", "bdd", "presence-condition representation: bdd or sat")
	}
	if groups&Opt != 0 {
		names := make([]string, len(levels))
		for i, l := range levels {
			names[i] = l.name
		}
		fs.StringVar(&o.Opt, "opt", "all", "parser optimization level: "+strings.Join(names, ", "))
	}
	if groups&Store != 0 {
		fs.StringVar(&o.Store, "store", "", "artifact store directory backing the header cache across runs")
	}
	fs.IntVar(&o.Jobs, "j", 0, "worker-pool width "+jobsFor+" (0: GOMAXPROCS)")
	fs.IntVar(&o.ParseWorkers, "parse-workers", 0, "intra-unit parse workers per "+unit+
		"; output is identical at any value (0: min(GOMAXPROCS, 8), 1: sequential)")
	o.limits = guard.FlagLimits(fs)
}

// Config resolves the flags into the configuration a tool's units run
// under: include paths, defines, condition mode, optimization level, -j,
// intra-unit parse workers and per-unit budget. The header cache is left to
// HeaderCache, which may touch the disk. An error names the unknown -mode
// or -opt value.
func (o *Options) Config() (harness.RunConfig, error) {
	mode, err := ParseMode(o.Mode)
	if err != nil {
		return harness.RunConfig{}, err
	}
	opts, err := ParseLevel(o.Opt)
	if err != nil {
		return harness.RunConfig{}, err
	}
	cfg := harness.RunConfig{
		Mode:         mode,
		Parser:       opts,
		Defines:      parseDefines(o.Defines),
		Jobs:         o.Jobs,
		ParseWorkers: o.ParseWorkerCount(),
		IncludePaths: o.IncludePaths,
	}
	if o.limits != nil {
		cfg.Budget = *o.limits
	}
	return cfg, nil
}

// ParseWorkerCount resolves -parse-workers: 0 (or less) means
// fmlr.AutoWorkers, one worker per processor up to 8.
func (o *Options) ParseWorkerCount() int {
	if o.ParseWorkers <= 0 {
		return fmlr.AutoWorkers()
	}
	return o.ParseWorkers
}

// HeaderCache returns a fresh cross-unit header cache, backed by the -store
// directory when one was given. Every unit of the run shares it: the cache
// is concurrency-safe, unlike the per-unit condition spaces.
func (o *Options) HeaderCache() (*hcache.Cache, error) {
	var opts hcache.Options
	if o.Store != "" {
		st, err := store.Open(o.Store, store.Options{})
		if err != nil {
			return nil, err
		}
		opts.Backing = store.NewHeaderBacking(st, preprocessor.PayloadCodec())
	}
	return hcache.New(opts), nil
}

// ParseMode maps a -mode name to its presence-condition representation;
// the empty name means bdd.
func ParseMode(name string) (cond.Mode, error) {
	switch name {
	case "", "bdd":
		return cond.ModeBDD, nil
	case "sat":
		return cond.ModeSAT, nil
	}
	return 0, fmt.Errorf("unknown -mode %q", name)
}

// levels are the -opt names of the paper's optimization levels, in the
// order the -opt help lists them.
var levels = []struct {
	name string
	opts fmlr.Options
}{
	{"all", fmlr.OptAll},
	{"sharedlazy", fmlr.OptSharedLazy},
	{"shared", fmlr.OptShared},
	{"lazy", fmlr.OptLazy},
	{"follow", fmlr.OptFollowOnly},
	{"mapr", fmlr.OptMAPR},
	{"mapr-largest", fmlr.OptMAPRLargest},
}

// ParseLevel maps an -opt name to its parser optimization level; the empty
// name means all.
func ParseLevel(name string) (fmlr.Options, error) {
	if name == "" {
		return fmlr.OptAll, nil
	}
	for _, l := range levels {
		if l.name == name {
			return l.opts, nil
		}
	}
	return fmlr.Options{}, fmt.Errorf("unknown -opt %q", name)
}

// parseDefines turns -D arguments into a macro table: NAME defines NAME as
// 1, NAME=VALUE splits at the first '='. A later definition of a name wins.
func parseDefines(defs []string) map[string]string {
	m := make(map[string]string, len(defs))
	for _, d := range defs {
		name, val, ok := strings.Cut(d, "=")
		if !ok {
			val = "1"
		}
		m[name] = val
	}
	return m
}
