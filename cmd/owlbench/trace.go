package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the harness around the
// layer's public function. Times are offsets from the tracer's origin.
type span struct {
	Name   string
	Start  time.Duration
	End    time.Duration
	Parent int // index of the span that caused it, -1 for a root
	Track  int // worker (goroutine) lane in the trace viewer
	Run    int // which repeat of the workload the span belongs to
}

// tracer holds spans in memory until the run ends; nothing is written while
// the clock runs.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	run    int
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// nextRun starts a new repeat: later spans carry the new run id.
func (t *tracer) nextRun() {
	t.mu.Lock()
	t.run++
	t.mu.Unlock()
}

// begin opens a span and returns its id for end and for children.
func (t *tracer) begin(name string, parent, track int) int {
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Track: track, Run: t.run})
	return len(t.spans) - 1
}

// end closes span id and returns the finished span.
func (t *tracer) end(id int) span {
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	return t.spans[id]
}

func (s span) dur() time.Duration { return s.End - s.Start }

// selfTimes returns, for every span, its duration minus the part of its
// interval that its direct children cover. Children may overlap each other
// (two workers reasoning at once) and are clipped to the parent, so the
// covered part is the length of the union of their intervals.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var covered time.Duration
		cursor := s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < cursor {
				lo = cursor
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// writeChromeTrace writes the spans in the Chrome trace-event format
// (chrome://tracing, Perfetto): one complete event per span, one process per
// workload repeat, one thread per track.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	self := selfTimes(spans)
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{Name: s.Name, Ph: "X", Ts: us(s.Start), Dur: us(s.End - s.Start),
			Pid: s.Run, Tid: s.Track,
			Args: map[string]any{"id": i, "parent": s.Parent, "self_us": us(self[i])}}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
