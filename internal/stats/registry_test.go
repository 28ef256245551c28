package stats

import (
	"strings"
	"sync"
	"testing"
	"time"
)

type probe struct {
	hits, level int64
	busy        time.Duration
}

var probeFields = Fields[probe]{
	NewField("probe_hits", KindCounter, "Probe hits.", func(p *probe) int64 { return p.hits }),
	NewField("probe_level", KindGauge, "Probe level.", func(p *probe) int64 { return p.level }),
	NewField("probe_busy_ns", KindDuration, "Probe busy time in nanoseconds.", func(p *probe) int64 { return int64(p.busy) }),
}

var probeRegistry = NewRegistry(probeFields.Descs(), []Desc{{Name: "extra_total", Help: "Extra.", Kind: KindCounter}})

func probeSnapshot(p probe, extra int64) Snapshot {
	return probeRegistry.Snapshot(probeFields.Values(&p), []int64{extra})
}

func TestSnapshotGetSubMap(t *testing.T) {
	before := probeSnapshot(probe{hits: 2, level: 9, busy: time.Millisecond}, 1)
	after := probeSnapshot(probe{hits: 5, level: 4, busy: 3 * time.Millisecond}, 1)
	d := after.Sub(before)
	if d.Get("probe_hits") != 3 || d.Get("probe_level") != 4 ||
		d.Get("probe_busy_ns") != int64(2*time.Millisecond) || d.Get("extra_total") != 0 {
		t.Errorf("delta = %v", d.Map())
	}
	m := after.Map()
	if len(m) != 4 || m["probe_hits"] != 5 || m["extra_total"] != 1 {
		t.Errorf("map = %v", m)
	}
}

func TestSnapshotRenderings(t *testing.T) {
	s := probeSnapshot(probe{hits: 7, level: -1, busy: 1500 * time.Microsecond}, 3)
	if got, want := s.String(), "  probe_hits=7 probe_level=-1 probe_busy_ns=1.500ms\n  extra_total=3\n"; got != want {
		t.Errorf("text block:\n%q\nwant\n%q", got, want)
	}
	var b strings.Builder
	if err := s.WritePrometheus(&b, "x_"); err != nil {
		t.Fatal(err)
	}
	want := `# HELP x_probe_hits Probe hits.
# TYPE x_probe_hits counter
x_probe_hits 7
# HELP x_probe_level Probe level.
# TYPE x_probe_level gauge
x_probe_level -1
# HELP x_probe_busy_ns Probe busy time in nanoseconds.
# TYPE x_probe_busy_ns counter
x_probe_busy_ns 1500000
# HELP x_extra_total Extra.
# TYPE x_extra_total counter
x_extra_total 3
`
	if b.String() != want {
		t.Errorf("prometheus:\n%s\nwant\n%s", b.String(), want)
	}
}

func TestTextBlockWraps(t *testing.T) {
	var descs []Desc
	vals := make([]int64, 30)
	for i := range vals {
		descs = append(descs, Desc{Name: "metric_" + string(rune('a'+i%26)) + strings.Repeat("x", i/26), Kind: KindCounter})
	}
	out := NewRegistry(descs).Snapshot(vals).String()
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) < 2 {
		t.Fatalf("30 items did not wrap:\n%s", out)
	}
	for _, l := range lines {
		if len(l) > textWidth {
			t.Errorf("line exceeds %d columns: %q", textWidth, l)
		}
	}
	for _, d := range descs {
		if !strings.Contains(out, d.Name+"=0") {
			t.Errorf("text block lost %s", d.Name)
		}
	}
}

func TestRegistryRejectsDuplicateNames(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewRegistry accepted a name declared twice")
		}
	}()
	NewRegistry([]Desc{{Name: "a_b"}}, []Desc{{Name: "a_b"}})
}

func TestFieldsFoldConcurrent(t *testing.T) {
	set := NewCounterSet(len(probeFields))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				probeFields.Fold(set, &probe{hits: 1, busy: time.Microsecond})
			}
		}()
	}
	wg.Wait()
	if got := set.Snapshot(); got[0] != 800 || got[1] != 0 || got[2] != int64(800*time.Microsecond) {
		t.Errorf("folded = %v", got)
	}
}
