package stats

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Kind is an instrument's type: how Snapshot.Sub treats it and which
// Prometheus # TYPE it renders as.
type Kind uint8

const (
	KindCounter  Kind = iota // a running total; Sub subtracts
	KindGauge                // a current level; Sub keeps the later value
	KindDuration             // accumulated nanoseconds: a counter, shown in ms
)

// Desc declares one instrument.
type Desc struct {
	Name string // lower_snake_case, unique within a Registry
	Help string // one line: the # HELP text
	Kind Kind
}

// Field is a Desc plus the function that reads its value from a T.
type Field[T any] struct {
	Desc
	Get func(*T) int64
}

// NewField declares one instrument read from a T.
func NewField[T any](name string, kind Kind, help string, get func(*T) int64) Field[T] {
	return Field[T]{Desc{name, help, kind}, get}
}

// Flag is 1 for true and 0 for false: a condition as a count or a gauge.
func Flag(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Fields is a declaration table over one source type: each instrument's
// name, help, kind and reader in one place.
type Fields[T any] []Field[T]

// Descs returns the table's declarations in order.
func (fs Fields[T]) Descs() []Desc {
	out := make([]Desc, len(fs))
	for i := range fs {
		out[i] = fs[i].Desc
	}
	return out
}

// Values reads every field from t, in table order.
func (fs Fields[T]) Values(t *T) []int64 {
	out := make([]int64, len(fs))
	for i := range fs {
		out[i] = fs[i].Get(t)
	}
	return out
}

// Fold adds each field's value from t into slot i of set. It is lock-free
// and looks up no names, so concurrent workers fold finished units straight
// into one shared set.
func (fs Fields[T]) Fold(set *CounterSet, t *T) {
	for i := range fs {
		if v := fs[i].Get(t); v != 0 {
			set.Add(i, v)
		}
	}
}

// Registry is the fixed, ordered list of instruments one surface renders.
// Each group passed to NewRegistry is one line of the text block.
type Registry struct {
	descs []Desc
	ends  []int // end offset of each group in descs
	index map[string]int
}

// NewRegistry declares the instruments of groups, in order. Declarations
// are static, so a repeated name is a bug and panics.
func NewRegistry(groups ...[]Desc) *Registry {
	r := &Registry{index: make(map[string]int)}
	for _, g := range groups {
		for _, d := range g {
			if _, dup := r.index[d.Name]; dup {
				panic(fmt.Sprintf("stats: metric %q declared twice", d.Name))
			}
			r.index[d.Name] = len(r.descs)
			r.descs = append(r.descs, d)
		}
		r.ends = append(r.ends, len(r.descs))
	}
	return r
}

// Descs returns every declaration in registry order.
func (r *Registry) Descs() []Desc { return append([]Desc(nil), r.descs...) }

// Snapshot binds values to the registry: the concatenation of vals holds
// one value per declaration, in registry order.
func (r *Registry) Snapshot(vals ...[]int64) Snapshot {
	s := Snapshot{reg: r}
	for _, v := range vals {
		s.vals = append(s.vals, v...)
	}
	if len(s.vals) != len(r.descs) {
		panic(fmt.Sprintf("stats: %d values for %d instruments", len(s.vals), len(r.descs)))
	}
	return s
}

// Snapshot is one reading of every instrument of a Registry.
type Snapshot struct {
	reg  *Registry
	vals []int64
}

// Get returns the named instrument's value; an undeclared name panics.
func (s Snapshot) Get(name string) int64 {
	i, ok := s.reg.index[name]
	if !ok {
		panic(fmt.Sprintf("stats: no metric %q", name))
	}
	return s.vals[i]
}

// Sub returns the change since before, a snapshot of the same registry:
// counters and durations subtract, gauges keep s's value.
func (s Snapshot) Sub(before Snapshot) Snapshot {
	out := Snapshot{reg: s.reg, vals: append([]int64(nil), s.vals...)}
	for i, d := range s.reg.descs {
		if d.Kind != KindGauge {
			out.vals[i] -= before.vals[i]
		}
	}
	return out
}

// Map returns every value by name (superd's /v1/stats counters).
func (s Snapshot) Map() map[string]int64 {
	m := make(map[string]int64, len(s.vals))
	for i, d := range s.reg.descs {
		m[d.Name] = s.vals[i]
	}
	return m
}

// textWidth is where the text block wraps a group's line.
const textWidth = 100

// String renders the human text block: one line per group of name=value
// pairs (durations in milliseconds), wrapped at textWidth columns.
func (s Snapshot) String() string {
	var b strings.Builder
	start := 0
	for _, end := range s.reg.ends {
		line := " "
		for i, d := range s.reg.descs[start:end] {
			item := fmt.Sprintf("%s=%d", d.Name, s.vals[start+i])
			if d.Kind == KindDuration {
				item = fmt.Sprintf("%s=%.3fms", d.Name, 1e3*time.Duration(s.vals[start+i]).Seconds())
			}
			if i > 0 && len(line)+1+len(item) > textWidth {
				b.WriteString(line + "\n")
				line = "   "
			}
			line += " " + item
		}
		b.WriteString(line + "\n")
		start = end
	}
	return b.String()
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format, each name prefixed: a # HELP and a # TYPE line, then the value.
func (s Snapshot) WritePrometheus(w io.Writer, prefix string) error {
	var b strings.Builder
	for i, d := range s.reg.descs {
		typ := "counter"
		if d.Kind == KindGauge {
			typ = "gauge"
		}
		name := prefix + d.Name
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n%s %d\n", name, d.Help, name, typ, name, s.vals[i])
	}
	_, err := io.WriteString(w, b.String())
	return err
}
