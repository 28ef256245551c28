package cli

import (
	"flag"
	"io"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/cond"
	"repro/internal/fmlr"
	"repro/internal/harness"
	"repro/internal/store"
)

// parse registers every flag group on a fresh FlagSet, parses args and
// resolves the configuration, as the CLIs do.
func parse(t *testing.T, args ...string) (*Options, harness.RunConfig, error) {
	t.Helper()
	var o Options
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o.RegisterFlags(fs, Config|Opt|Store, "for tests", "unit")
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	cfg, err := o.Config()
	return &o, cfg, err
}

func TestResolve(t *testing.T) {
	auto := fmlr.AutoWorkers()
	cases := []struct {
		name    string
		args    []string
		wantErr string
		check   func(t *testing.T, o *Options, cfg harness.RunConfig)
	}{
		{name: "defaults", check: func(t *testing.T, o *Options, cfg harness.RunConfig) {
			if cfg.Mode != cond.ModeBDD || cfg.Parser != fmlr.OptAll {
				t.Errorf("mode %v parser %+v, want bdd/all", cfg.Mode, cfg.Parser)
			}
			if len(cfg.Defines) != 0 || cfg.IncludePaths != nil {
				t.Errorf("defines %v includes %v, want none", cfg.Defines, cfg.IncludePaths)
			}
		}},
		{name: "mode sat", args: []string{"-mode", "sat"}, check: func(t *testing.T, o *Options, cfg harness.RunConfig) {
			if cfg.Mode != cond.ModeSAT {
				t.Errorf("mode %v, want sat", cfg.Mode)
			}
		}},
		{name: "mode bdd", args: []string{"-mode", "bdd"}, check: func(t *testing.T, o *Options, cfg harness.RunConfig) {
			if cfg.Mode != cond.ModeBDD {
				t.Errorf("mode %v, want bdd", cfg.Mode)
			}
		}},
		{name: "mode unknown", args: []string{"-mode", "zdd"}, wantErr: `unknown -mode "zdd"`},
		{name: "opt follow", args: []string{"-opt", "follow"}, check: func(t *testing.T, o *Options, cfg harness.RunConfig) {
			if cfg.Parser != fmlr.OptFollowOnly {
				t.Errorf("parser %+v, want follow-set only", cfg.Parser)
			}
		}},
		{name: "opt mapr-largest", args: []string{"-opt", "mapr-largest"}, check: func(t *testing.T, o *Options, cfg harness.RunConfig) {
			if cfg.Parser != fmlr.OptMAPRLargest {
				t.Errorf("parser %+v, want MAPR largest-first", cfg.Parser)
			}
		}},
		{name: "opt unknown", args: []string{"-opt", "fastest"}, wantErr: `unknown -opt "fastest"`},
		{name: "define name", args: []string{"-D", "A"}, check: func(t *testing.T, o *Options, cfg harness.RunConfig) {
			if want := map[string]string{"A": "1"}; !reflect.DeepEqual(cfg.Defines, want) {
				t.Errorf("defines %v, want %v", cfg.Defines, want)
			}
		}},
		{name: "define splits at first =", args: []string{"-D", "A=B=C", "-D", "X="}, check: func(t *testing.T, o *Options, cfg harness.RunConfig) {
			if want := map[string]string{"A": "B=C", "X": ""}; !reflect.DeepEqual(cfg.Defines, want) {
				t.Errorf("defines %v, want %v", cfg.Defines, want)
			}
		}},
		{name: "includes keep order", args: []string{"-I", "b", "-I", "a"}, check: func(t *testing.T, o *Options, cfg harness.RunConfig) {
			if want := []string{"b", "a"}; !reflect.DeepEqual(cfg.IncludePaths, want) {
				t.Errorf("includes %v, want %v", cfg.IncludePaths, want)
			}
		}},
		{name: "parse-workers 0 is auto", args: []string{"-parse-workers", "0"}, check: func(t *testing.T, o *Options, cfg harness.RunConfig) {
			if cfg.ParseWorkers != auto || o.ParseWorkerCount() != auto {
				t.Errorf("parse workers %d, want fmlr.AutoWorkers() = %d", cfg.ParseWorkers, auto)
			}
		}},
		{name: "parse-workers 3", args: []string{"-parse-workers", "3"}, check: func(t *testing.T, o *Options, cfg harness.RunConfig) {
			if cfg.ParseWorkers != 3 {
				t.Errorf("parse workers %d, want 3", cfg.ParseWorkers)
			}
		}},
		{name: "j 0 with small n", args: []string{"-j", "0"}, check: func(t *testing.T, o *Options, cfg harness.RunConfig) {
			for n, want := range map[int]int{0: 1, 1: 1, 2: min(2, runtime.GOMAXPROCS(0))} {
				if got := harness.Workers(o.Jobs, n); got != want {
					t.Errorf("Workers(%d, %d) = %d, want %d", o.Jobs, n, got, want)
				}
			}
		}},
		{name: "j above n", args: []string{"-j", "8"}, check: func(t *testing.T, o *Options, cfg harness.RunConfig) {
			if got := harness.Workers(o.Jobs, 3); got != 3 {
				t.Errorf("Workers(8, 3) = %d, want 3", got)
			}
		}},
		{name: "no store: unbacked cache", check: func(t *testing.T, o *Options, cfg harness.RunConfig) {
			hc, err := o.HeaderCache()
			if err != nil {
				t.Fatal(err)
			}
			if hc.Backing() != nil {
				t.Errorf("backing %T, want none", hc.Backing())
			}
		}},
		{name: "store backs the cache", args: []string{"-store", "$DIR"}, check: func(t *testing.T, o *Options, cfg harness.RunConfig) {
			hc, err := o.HeaderCache()
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := hc.Backing().(*store.HeaderBacking); !ok {
				t.Errorf("backing %T, want *store.HeaderBacking", hc.Backing())
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			args := append([]string(nil), tc.args...)
			for i, a := range args {
				if a == "$DIR" {
					args[i] = t.TempDir()
				}
			}
			o, cfg, err := parse(t, args...)
			if tc.wantErr != "" {
				if err == nil || err.Error() != tc.wantErr {
					t.Fatalf("err = %v, want %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			tc.check(t, o, cfg)
		})
	}
}

// TestFlagGroups pins which flags each group declares: the tools' -h
// output depends on it.
func TestFlagGroups(t *testing.T) {
	for _, tc := range []struct {
		groups Flags
		want   []string
	}{
		{0, []string{"budget-bdd-nodes", "budget-hoist", "budget-macro-steps", "budget-subparsers", "budget-tokens", "j", "parse-workers", "timeout"}},
		{Store, []string{"budget-bdd-nodes", "budget-hoist", "budget-macro-steps", "budget-subparsers", "budget-tokens", "j", "parse-workers", "store", "timeout"}},
		{Config | Store, []string{"D", "I", "budget-bdd-nodes", "budget-hoist", "budget-macro-steps", "budget-subparsers", "budget-tokens", "j", "mode", "parse-workers", "store", "timeout"}},
		{Config | Opt | Store, []string{"D", "I", "budget-bdd-nodes", "budget-hoist", "budget-macro-steps", "budget-subparsers", "budget-tokens", "j", "mode", "opt", "parse-workers", "store", "timeout"}},
	} {
		var o Options
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		o.RegisterFlags(fs, tc.groups, "for tests", "unit")
		var got []string
		fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("groups %b declare %v, want %v", tc.groups, got, tc.want)
		}
	}
}
