package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans of one
// operation share an op id; parent names the enclosing span.
type span struct {
	Name   string
	Layer  string
	Op     int
	Parent int
	Start  time.Duration
	End    time.Duration
	TID    int
}

// tracer keeps spans in memory and writes them out when the run ends.
// A nil tracer records nothing, so untraced runs pay one nil check per
// call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(layer, name string, op, parent, tid int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Layer: layer, Op: op, Parent: parent, Start: now, End: -1, TID: tid})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// do runs f inside a span and returns f's host duration.
func (t *tracer) do(layer, name string, op, parent int, f func() error) (time.Duration, error) {
	id := t.begin(layer, name, op, parent, 0)
	start := time.Now()
	err := f()
	d := time.Since(start)
	t.end(id)
	return d, err
}

func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// selfTimes returns each layer's self time in seconds: a span's
// duration minus the part its child spans cover.
func (t *tracer) selfTimes() map[string]float64 {
	out := map[string]float64{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.spans {
		if s.End >= 0 {
			out[s.Layer] += (s.End - s.Start - child[i]).Seconds()
		}
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON (complete
// "X" events, microsecond timestamps), loadable in chrome://tracing or
// Perfetto.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, 0, len(t.spans))
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		events = append(events, event{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			TS:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			PID: 1, TID: s.TID,
			Args: map[string]int{"span": i, "op": s.Op, "parent": s.Parent},
		})
	}
	t.mu.Unlock()
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
