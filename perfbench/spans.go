package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// span is one timed call into a layer: name is "<layer>.<call>".
type span struct {
	name       string
	start, end time.Duration // since the recorder's origin
	parent     int           // index of the enclosing span, -1 at top level
	run        int           // which measured run the span belongs to
}

// recorder keeps spans in memory around the benchmark's calls into each
// layer. A nil recorder records nothing, so untraced runs pay one nil check
// per call.
type recorder struct {
	origin time.Time
	spans  []span
	open   []int
	run    int
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// do runs f inside a span named name, nested in the span open around the
// call, if any.
func (r *recorder) do(name string, f func()) {
	if r == nil {
		f()
		return
	}
	parent := -1
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	r.spans = append(r.spans, span{name: name, start: time.Since(r.origin), parent: parent, run: r.run})
	i := len(r.spans) - 1
	r.open = append(r.open, i)
	f()
	r.spans[i].end = time.Since(r.origin)
	r.open = r.open[:len(r.open)-1]
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// selfTime returns each layer's self time: the duration of its spans minus
// the part their child spans cover.
func (r *recorder) selfTime() map[string]time.Duration {
	child := make([]time.Duration, len(r.spans))
	for _, s := range r.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := map[string]time.Duration{}
	for i, s := range r.spans {
		out[layerOf(s.name)] += s.end - s.start - child[i]
	}
	return out
}

// stat returns the number of spans with the given name and their total
// duration.
func (r *recorder) stat(name string) (n int, total time.Duration) {
	for _, s := range r.spans {
		if s.name == name {
			n++
			total += s.end - s.start
		}
	}
	return n, total
}

// meanUS is the mean duration in microseconds of the spans with the given
// name (0 when there are none).
func (r *recorder) meanUS(name string) float64 {
	n, total := r.stat(name)
	if n == 0 {
		return 0
	}
	return micros(total) / float64(n)
}

type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeChrome writes the spans as a Chrome trace_event file (loadable in
// Perfetto or chrome://tracing).
func (r *recorder) writeChrome(path string) error {
	evs := make([]traceEvent, len(r.spans))
	for i, s := range r.spans {
		evs[i] = traceEvent{
			Name: s.name, Cat: layerOf(s.name), Ph: "X",
			Ts: micros(s.start), Dur: micros(s.end - s.start),
			Pid: 1, Tid: 1, Args: map[string]int{"run": s.run, "parent": s.parent},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
