package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cgrammar"
	"repro/internal/stats"
)

// workload is one set of inputs. run executes one round in a child process;
// prepare (once per run) and beforeRound (before each child) set up the
// run's inputs in the parent, untimed.
type workload struct {
	name        string
	run         func(a *childArgs, ready func()) (*roundOut, error)
	prepare     func(o *options, work string) error
	beforeRound func(work string, round int) error
}

var workloads = []workload{
	{name: "batch-link", run: batchLink},
	{name: "giant-unit", run: giantUnit},
	{name: "daemon-lint", run: daemonLint, prepare: prepareDaemonLint},
	{name: "link-edit", run: linkEdit, prepare: prepareLinkEdit, beforeRound: restoreLinkEdit},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// minRounds is the fewest measured rounds an untraced run makes, so that
// set-up is measured several times and output is compared across rounds.
const minRounds = 3

// buildDir holds everything the benchmark writes, relative to the
// repository root it runs from.
const buildDir = ".bench_build"

// envStamp records where a result was measured.
type envStamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
	TableCache string `json:"table_cache"`
	Seed       int64  `json:"seed"`
}

func stamp(seed int64) envStamp {
	e := envStamp{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Kernel: "unknown", Commit: "unknown", TableCache: cgrammar.TableCacheState(), Seed: seed}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(b))
	}
	if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(b))
	}
	return e
}

func (e envStamp) String() string {
	return fmt.Sprintf("env: nproc=%d GOMAXPROCS=%d go=%s kernel=%s commit=%s table-cache=%s seed=%d",
		e.NProc, e.GOMAXPROCS, e.GoVersion, e.Kernel, e.Commit, e.TableCache, e.Seed)
}

// runResult is one run of one workload, as the results file keeps it.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Trace     bool                   `json:"trace"`
	Rounds    int                    `json:"rounds"`
	Samples   int                    `json:"samples"` // latency samples behind the percentiles
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Env       envStamp               `json:"env"`
}

// roundStat is one child's report plus what the parent measured around it.
type roundStat struct {
	*roundOut
	setup  time.Duration // process start until the child is ready to time
	rssMiB float64       // the child's peak resident set
}

// runWorkload makes one run. Round 0 warms the machine up and checks the
// output against the in-process chain; it is not measured. Untraced runs
// then make rounds until o.seconds of measured time, at least minRounds;
// traced runs make one untraced round and one traced round.
func runWorkload(o *options, spec *benchSpec, w *workload) (*runResult, error) {
	work := filepath.Join(buildDir, "work", fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	if err := os.RemoveAll(work); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	if w.prepare != nil {
		if err := w.prepare(o, work); err != nil {
			return nil, fmt.Errorf("%s: prepare: %w", w.name, err)
		}
	}

	var rounds []*roundStat
	var want string
	measured := 0.0
	for r := 0; ; r++ {
		if o.trace && r == 3 || !o.trace && len(rounds) >= minRounds && measured >= o.seconds {
			break
		}
		tracePath := ""
		if o.trace && r == 2 {
			tracePath = filepath.Join(o.traceDir(), w.name+".json")
		}
		var extra []string
		if r == 0 || tracePath != "" {
			extra = append(extra, "-check")
		}
		if w.beforeRound != nil {
			if err := w.beforeRound(work, r); err != nil {
				return nil, fmt.Errorf("%s: round %d: %w", w.name, r, err)
			}
		}
		rs, err := spawnRound(o, w.name, r, work, tracePath, extra...)
		if err != nil {
			return nil, fmt.Errorf("%s: round %d: %w", w.name, r, err)
		}
		os.RemoveAll(filepath.Join(work, fmt.Sprintf("store-%d", r)))
		if r == 0 {
			want = rs.Digest
			continue
		}
		if rs.Digest != want {
			return nil, fmt.Errorf("%s: round %d output differs from round 0", w.name, r)
		}
		rounds = append(rounds, rs)
		measured += rs.Seconds
	}

	res := &runResult{Workload: w.name, Seed: o.seed, Trace: o.trace, Rounds: len(rounds), Env: stamp(o.seed)}
	var lat stats.Sample
	var rates, setups, rss []float64
	for _, rs := range rounds {
		res.Attempted += rs.Ops
		res.Failed += rs.Failed
		for _, v := range rs.LatMS {
			lat.Add(v)
		}
		rates = append(rates, float64(rs.Ops-rs.Failed)/rs.Seconds)
		setups = append(setups, rs.setup.Seconds())
		rss = append(rss, rs.rssMiB)
	}
	res.Samples = lat.Len()
	var err error
	if o.trace {
		layers := rounds[1].Layers
		layers["trace.overhead_share"] = ratio(rounds[1].Seconds-rounds[0].Seconds, rounds[0].Seconds)
		res.Metrics, err = label(layers, spec.PerLayer, true)
	} else {
		// Medians over rounds keep one disturbed round from moving a run.
		res.Metrics, err = label(map[string]float64{
			"setup_s":      median(setups),
			"ops_per_s":    median(rates),
			"op_p50_ms":    lat.Percentile(0.5),
			"op_p90_ms":    lat.Percentile(0.9),
			"peak_rss_mib": median(rss),
		}, spec.EndToEnd, false)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// spawnRound runs one child, passing it extra flags. Its set-up time runs
// from process start until it prints "ready"; its result is the JSON line
// that follows.
func spawnRound(o *options, name string, round int, work, tracePath string, extra ...string) (*roundStat, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", name, "-seed", strconv.FormatInt(o.seed, 10),
		"-round", strconv.Itoa(round), "-work", work}
	if o.toy {
		args = append(args, "-toy")
	}
	if tracePath != "" {
		args = append(args, "-trace-out", tracePath)
	}
	args = append(args, extra...)
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	// A child never outlives the run that started it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	rs := &roundStat{}
	rd := bufio.NewReader(stdout)
	line, rerr := rd.ReadString('\n')
	if rerr == nil && line == "ready\n" {
		rs.setup = time.Since(t0)
		var out roundOut
		if derr := json.NewDecoder(rd).Decode(&out); derr == nil {
			rs.roundOut = &out
		}
	}
	io.Copy(io.Discard, rd)
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("child: %w", err)
	}
	if rs.roundOut == nil {
		return nil, errors.New("child reported no result")
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rs.rssMiB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return rs, nil
}

// median is the middle value (the mean of the two middle values for an even
// count), as Python's statistics.median takes it.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles by Python's
// statistics.quantiles(v, n=4) (the exclusive method).
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}
