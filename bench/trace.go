package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// tracer records spans around the benchmark's calls into SuperC's layers.
// Spans stay in memory and are written once, as Chrome trace-event JSON, when
// the round ends. A nil *tracer records nothing, so the untraced path pays one
// nil check per boundary.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

// span is one timed call. ID is its index + 1 in the tracer's slice; Parent
// is 0 for a root. Op groups the spans of one unit or one request.
type span struct {
	Name   string
	Op     string
	ID     int
	Parent int
	TID    int
	Start  time.Duration
	End    time.Duration
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its id (0 when tracing is off).
func (t *tracer) begin(name, op string, parent, tid int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, ID: len(t.spans) + 1, Parent: parent, TID: tid, Start: now})
	return len(t.spans)
}

// mark returns the number of spans recorded so far.
func (t *tracer) mark() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// addSpan records a span whose times were taken elsewhere (the daemon
// handler middleware reports start and duration after the fact).
func (t *tracer) addSpan(name, op string, parent, tid int, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	s := start.Sub(t.origin)
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Op: op, ID: len(t.spans) + 1, Parent: parent, TID: tid, Start: s, End: s + d})
	t.mu.Unlock()
}

// selfTime sums, per span name, each span's duration minus the time its
// children cover, over the spans of op ("" for every op). Children of one
// span never overlap (every caller runs its calls in sequence), so their
// durations add up.
func (t *tracer) selfTime(op string) map[string]time.Duration {
	child := make([]time.Duration, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]time.Duration{}
	for _, s := range t.spans {
		if op == "" || s.Op == op {
			self[s.Name] += s.End - s.Start - child[s.ID]
		}
	}
	return self
}

// total sums the durations of the spans called name, over the spans of op
// ("" for every op).
func (t *tracer) total(name, op string) time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.Name == name && (op == "" || s.Op == op) {
			d += s.End - s.Start
		}
	}
	return d
}

// traceEvent is one complete ("ph":"X") Chrome trace event; ts and dur are
// microseconds.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

type traceFile struct {
	TraceEvents []traceEvent `json:"traceEvents"`
}

// write saves the spans as Chrome trace-event JSON (chrome://tracing,
// Perfetto). Each event's args carry its id, its parent's id and its op.
func (t *tracer) write(path string) error {
	f := traceFile{TraceEvents: make([]traceEvent, len(t.spans))}
	for i, s := range t.spans {
		f.TraceEvents[i] = traceEvent{
			Name: s.Name, Ph: "X", PID: 1, TID: s.TID,
			TS:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "op": s.Op},
		}
	}
	data, err := json.Marshal(&f)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
