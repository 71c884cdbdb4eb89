package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer's public function. Spans of one op
// share a trace id; parent links a span to the span that caused it (0 for
// a root).
type span struct {
	name   string
	trace  int
	id     int
	parent int
	start  time.Duration // since the tracer started
	end    time.Duration
}

func (s *span) dur() time.Duration { return s.end - s.start }

// tracer keeps spans in memory and writes them out when the run ends. A
// nil tracer records nothing, so the untraced path runs the same code.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(trace, parent int, name string) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{name: name, trace: trace, id: len(t.spans) + 1, parent: parent, start: time.Since(t.t0)})
	return len(t.spans)
}

// finish closes span id.
func (t *tracer) finish(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].end = time.Since(t.t0)
}

// do runs f inside a span named name.
func (t *tracer) do(trace, parent int, name string, f func()) {
	id := t.begin(trace, parent, name)
	f()
	t.finish(id)
}

// add records a span with known bounds (a duration reported by the server,
// or a wait measured before the span could be opened).
func (t *tracer) add(trace, parent int, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{name: name, trace: trace, id: len(t.spans) + 1, parent: parent, start: start.Sub(t.t0), end: end.Sub(t.t0)})
}

// totalMS sums the durations of every span named name.
func (t *tracer) totalMS(name string) float64 {
	var d time.Duration
	for i := range t.spans {
		if t.spans[i].name == name {
			d += t.spans[i].dur()
		}
	}
	return ms(d)
}

// worstGapPct is, over every root span named root, the largest share of
// its duration not covered by its direct children: how well the top-level
// spans of an op reconcile with the op's wall clock.
func (t *tracer) worstGapPct(root string) float64 {
	covered := map[int]time.Duration{}
	for i := range t.spans {
		if p := t.spans[i].parent; p != 0 {
			covered[p] += t.spans[i].dur()
		}
	}
	worst := 0.0
	for i := range t.spans {
		s := &t.spans[i]
		if s.name != root || s.parent != 0 || s.dur() <= 0 {
			continue
		}
		gap := float64(s.dur()-covered[s.id]) / float64(s.dur()) * 100
		if gap < 0 {
			gap = -gap
		}
		worst = max(worst, gap)
	}
	return worst
}

// write stores the spans as Chrome trace-event JSON (one thread per op).
func (t *tracer) write(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		events = append(events, event{
			Name: s.name, Ph: "X", PID: 1, TID: s.trace,
			TS:   float64(s.start) / float64(time.Microsecond),
			Dur:  float64(s.dur()) / float64(time.Microsecond),
			Args: map[string]int{"id": s.id, "parent": s.parent},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
