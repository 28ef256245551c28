package daemon

import (
	"encoding/json"
	"flag"
	"reflect"
	"testing"

	"repro/internal/cli"
)

// TestFlagsAgreeWithDaemon is the agreement oracle between the two
// resolution paths of one set of pipeline flags: the in-process core.Config
// cli.Options resolves, and the config the daemon resolves from the request
// a CLI builds out of the same flags (after a wire round trip). The server
// allows 8 workers, so its QoS clamp stays out of the way of -parse-workers.
func TestFlagsAgreeWithDaemon(t *testing.T) {
	s := NewServer(Config{Root: t.TempDir(), MaxJobs: 8})
	for _, args := range [][]string{
		nil,
		{"-mode", "sat", "-opt", "follow", "-parse-workers", "3"},
		{"-I", "inc", "-I", "inc/gen", "-D", "A", "-D", "B=x=y", "-parse-workers", "0"},
		{"-mode", "bdd", "-opt", "mapr-largest", "-parse-workers", "1"},
	} {
		var o cli.Options
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		o.RegisterFlags(fs, cli.Config|cli.Opt|cli.Store, "for tests", "file")
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		local, err := o.Config()
		if err != nil {
			t.Fatal(err)
		}
		// The request superc builds from the same flags.
		req := ParseRequest{
			Files:        []string{"a.c"},
			IncludePaths: local.IncludePaths,
			Defines:      local.Defines,
			Mode:         o.Mode,
			Opt:          o.Opt,
			Jobs:         o.Jobs,
			ParseWorkers: local.ParseWorkers,
		}
		data, err := json.Marshal(&req)
		if err != nil {
			t.Fatal(err)
		}
		var wire ParseRequest
		if err := json.Unmarshal(data, &wire); err != nil {
			t.Fatal(err)
		}
		remote, _, err := s.resolve(wire.pipeline())
		if err != nil {
			t.Fatalf("%v: daemon rejected the request: %v", args, err)
		}
		if !reflect.DeepEqual(remote.IncludePaths, local.IncludePaths) {
			t.Errorf("%v: include paths %v, in-process %v", args, remote.IncludePaths, local.IncludePaths)
		}
		// Empty defines travel as an omitted field.
		if len(remote.Defines)+len(local.Defines) > 0 && !reflect.DeepEqual(remote.Defines, local.Defines) {
			t.Errorf("%v: defines %v, in-process %v", args, remote.Defines, local.Defines)
		}
		if remote.CondMode != local.CondMode {
			t.Errorf("%v: mode %v, in-process %v", args, remote.CondMode, local.CondMode)
		}
		if *remote.Parser != *local.Parser {
			t.Errorf("%v: parser %+v, in-process %+v", args, *remote.Parser, *local.Parser)
		}
		if remote.ParseWorkers != local.ParseWorkers {
			t.Errorf("%v: parse workers %d, in-process %d", args, remote.ParseWorkers, local.ParseWorkers)
		}
	}
}
