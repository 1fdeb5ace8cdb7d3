package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// traceEvent is one entry of the Chrome trace-event format ("JSON Object
// Format"), which Perfetto and chrome://tracing both load. Timestamps and
// durations are microseconds; fractional values are allowed, so the
// journal's nanosecond clock survives the conversion.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
	S    string         `json:"s,omitempty"` // instant-event scope
}

// traceTID maps a journal worker id to a trace thread id: the master track
// is tid 0, worker i is tid i+1.
func traceTID(worker int) int {
	if worker == MasterWorker {
		return 0
	}
	return worker + 1
}

// phaseTitle renders a journal phase name as a trace slice title.
func phaseTitle(phase string) string {
	if phase == "" {
		return "phase"
	}
	return strings.ToUpper(phase[:1]) + phase[1:]
}

// WriteTrace converts a run journal into Chrome trace-event JSON: one
// process, one named thread ("track") per worker plus a master track,
// complete ("X") slices for every phase span, and instant events for
// faults, recoveries and round boundaries. Rules with rule_profile
// summaries get their own lanes after the worker tracks, so per-rule
// attribution reads as a timeline next to the phase decomposition. The output loads directly into Perfetto
// (ui.perfetto.dev) or chrome://tracing and reproduces Figure 2's
// Reason/IO/Sync decomposition as a timeline.
func WriteTrace(w io.Writer, events []Event) error {
	var out []traceEvent

	// Track names. Collect the worker ids actually present so the trace
	// has exactly one named track per worker (plus the master), and the
	// rule names so each gets a lane above the worker tracks.
	workers := map[int]bool{}
	ruleSet := map[string]bool{}
	maxWorker := 0
	for _, e := range events {
		switch e.Type {
		case EvPhase, EvFault, EvAdopt, EvCheckpoint:
			workers[e.Worker] = true
			if e.Worker > maxWorker {
				maxWorker = e.Worker
			}
		case EvRuleProfile:
			ruleSet[e.Name] = true
		}
	}
	ids := make([]int, 0, len(workers))
	for id := range workers {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	ruleNames := make([]string, 0, len(ruleSet))
	for name := range ruleSet {
		ruleNames = append(ruleNames, name)
	}
	sort.Strings(ruleNames)
	ruleTID := map[string]int{}
	ruleBase := traceTID(maxWorker) + 1
	for i, name := range ruleNames {
		ruleTID[name] = ruleBase + i
	}
	out = append(out, traceEvent{
		Name: "process_name", Ph: "M", PID: 0, TID: 0,
		Args: map[string]any{"name": "powl run"},
	})
	for _, id := range ids {
		name := fmt.Sprintf("worker %d", id)
		if id == MasterWorker {
			name = "master"
		}
		out = append(out, traceEvent{
			Name: "thread_name", Ph: "M", PID: 0, TID: traceTID(id),
			Args: map[string]any{"name": name},
		})
	}
	for _, name := range ruleNames {
		out = append(out, traceEvent{
			Name: "thread_name", Ph: "M", PID: 0, TID: ruleTID[name],
			Args: map[string]any{"name": "rule " + name},
		})
	}

	for _, e := range events {
		ts := float64(e.TS) / 1e3
		dur := float64(e.Dur) / 1e3
		switch e.Type {
		case EvPhase:
			args := map[string]any{"round": e.Round}
			if e.N != 0 {
				args["tuples"] = e.N
			}
			out = append(out, traceEvent{
				Name: phaseTitle(e.Phase), Ph: "X", TS: ts, Dur: dur,
				PID: 0, TID: traceTID(e.Worker), Args: args,
			})
		case EvRoundStart:
			out = append(out, traceEvent{
				Name: fmt.Sprintf("round %d", e.Round), Ph: "i", TS: ts,
				PID: 0, TID: 0, S: "p",
			})
		case EvCheckpoint:
			out = append(out, traceEvent{
				Name: "checkpoint", Ph: "i", TS: ts, PID: 0, TID: traceTID(e.Worker), S: "t",
				Args: map[string]any{"round": e.Round, "tuples": e.N, "bytes": e.Bytes},
			})
		case EvFault:
			out = append(out, traceEvent{
				Name: "FAULT: " + e.Name, Ph: "i", TS: ts, PID: 0, TID: traceTID(e.Worker), S: "g",
				Args: map[string]any{"round": e.Round},
			})
		case EvAdopt:
			out = append(out, traceEvent{
				Name: fmt.Sprintf("adopt worker %d", e.N), Ph: "i", TS: ts,
				PID: 0, TID: traceTID(e.Worker), S: "g",
				Args: map[string]any{"round": e.Round},
			})
		case EvRuleProfile:
			// Summary slice on the rule's lane: Dur is the rule's
			// cumulative time, drawn ending at the flush timestamp.
			start := ts - dur
			if start < 0 {
				start = 0
			}
			out = append(out, traceEvent{
				Name: fmt.Sprintf("%s (w%d)", e.Name, e.Worker), Ph: "X",
				TS: start, Dur: dur, PID: 0, TID: ruleTID[e.Name],
				Args: map[string]any{
					"worker": e.Worker, "firings": e.N, "matches": e.N2,
					"derived": e.N3, "duplicates": e.N4,
				},
			})
		}
	}

	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{
		"traceEvents":     out,
		"displayTimeUnit": "ms",
	})
}
