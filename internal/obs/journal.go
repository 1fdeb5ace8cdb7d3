package obs

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// Event types emitted into the run journal.
const (
	EvRunStart    = "run_start"    // N = worker count
	EvRoundStart  = "round_start"  // Round set
	EvRoundEnd    = "round_end"    // N = tuples sent cluster-wide this round
	EvPhase       = "phase"        // Phase, Worker, Round, TS, Dur; N = tuples (send/recv)
	EvRuleProfile = "rule_profile" // Name = rule, Worker; N = firings, N2 = matches, N3 = derived, N4 = duplicates, Dur = time
	EvPiece       = "piece"        // one stratum firing of the parallel engine; Name = "stratum-<level>/<pieces>p", Worker, Round = sweep, N = delta triples, N2 = derived, N3 = threads, N4 = rule activations, Dur = span
	EvTransport   = "transport"    // Name = "from->to"; N = messages, N2 = triples, Bytes
	EvRetry       = "retry"        // Name = op; N = retries, Dur = backoff slept
	EvCheckpoint  = "checkpoint"   // Worker, Round; N = tuples, Bytes
	EvFault       = "fault"        // Worker, Round; Name = description
	EvDeath       = "death"        // Worker declared dead at Round; Name = cause, N = adopter
	EvAdopt       = "adopt"        // Worker adopts N (= victim id) at Round; N2 = tuples absorbed
	EvRejoin      = "rejoin"       // Worker rejoins at Round; N = epoch
	EvWarn        = "warn"         // degraded-mode warning; Name = description
	EvRedial      = "redial"       // Name = "from->to"; N = reconnects on that link
	EvRunEnd      = "run_end"      // Dur = elapsed, N = rounds

	// Serve-layer events (cmd/owlserve). Worker is MasterWorker throughout.
	EvQuery = "query" // one query; Name = outcome (ok/shed/deadline/watchdog/cancelled/panic/parse_error), Dur = latency, N = rows
	EvEpoch = "epoch" // writer published a snapshot; N = watermark, N2 = triples derived from the batch
	EvServe = "serve" // lifecycle; Name = start/drain/drained, N = in-flight at drain start
)

// Phase names used by phase events. Reason/Send/Recv/Sync are per-worker;
// Aggregate is the master-side merge (Worker == MasterWorker). The cluster
// layer's Timings map onto them as Reason = reason, IO = send + recv,
// Sync = sync.
const (
	PhaseReason    = "reason"
	PhaseSend      = "send"
	PhaseRecv      = "recv"
	PhaseSync      = "sync"
	PhaseAggregate = "aggregate"
)

// MasterWorker is the Worker value for master-side events (aggregation,
// supervision) that belong to no worker track.
const MasterWorker = -1

// Event is one record of the run journal. TS is nanoseconds since run
// start — wall-clock in Concurrent mode, the barrier-reconstructed virtual
// clock in Simulated mode — so a journal replays into a timeline in either
// mode. Dur is the span length in nanoseconds for span-shaped events.
type Event struct {
	Type   string `json:"type"`
	TS     int64  `json:"ts,omitempty"`
	Dur    int64  `json:"dur,omitempty"`
	Worker int    `json:"worker"`
	Round  int    `json:"round,omitempty"`
	Phase  string `json:"phase,omitempty"`
	Name   string `json:"name,omitempty"`
	N      int64  `json:"n,omitempty"`
	N2     int64  `json:"n2,omitempty"`
	N3     int64  `json:"n3,omitempty"`
	N4     int64  `json:"n4,omitempty"`
	Bytes  int64  `json:"bytes,omitempty"`
}

// Duration returns the event's span length.
func (e Event) Duration() time.Duration { return time.Duration(e.Dur) }

// Sink consumes journal events. Implementations must be safe for
// concurrent Emit calls (concurrent workers journal simultaneously).
type Sink interface {
	Emit(e Event)
}

// JSONLSink writes one JSON object per line. Wrap the target in a
// bufio.Writer for file sinks and call Flush when the run ends.
type JSONLSink struct {
	mu  sync.Mutex
	w   *bufio.Writer
	err error
}

// NewJSONLSink returns a sink writing JSONL to w.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{w: bufio.NewWriter(w)}
}

// Emit implements Sink. Encoding errors are sticky and reported by Flush.
func (s *JSONLSink) Emit(e Event) {
	b, err := json.Marshal(e)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	if err != nil {
		s.err = err
		return
	}
	b = append(b, '\n')
	if _, err := s.w.Write(b); err != nil {
		s.err = err
	}
}

// Flush drains the buffer and returns the first error encountered.
func (s *JSONLSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	return s.w.Flush()
}

// MemSink buffers events in memory — the test and report sink.
type MemSink struct {
	mu     sync.Mutex
	events []Event
}

// Emit implements Sink.
func (s *MemSink) Emit(e Event) {
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
}

// Events returns a copy of everything emitted so far.
func (s *MemSink) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Event, len(s.events))
	copy(out, s.events)
	return out
}

// MultiSink fans every event out to all children.
type MultiSink []Sink

// Emit implements Sink.
func (m MultiSink) Emit(e Event) {
	for _, s := range m {
		s.Emit(e)
	}
}

// WriteFiles writes a run's events to a JSONL journal at journal and a
// Chrome/Perfetto trace at trace, each only when its path is non-empty, and
// notes every file it wrote on notes.
func WriteFiles(notes io.Writer, events []Event, journal, trace string) error {
	if journal != "" {
		err := writeFile(journal, func(w io.Writer) error {
			sink := NewJSONLSink(w)
			for _, e := range events {
				sink.Emit(e)
			}
			return sink.Flush()
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(notes, "wrote journal %s (%d events)\n", journal, len(events))
	}
	if trace != "" {
		if err := writeFile(trace, func(w io.Writer) error { return WriteTrace(w, events) }); err != nil {
			return err
		}
		fmt.Fprintf(notes, "wrote trace %s (load at ui.perfetto.dev)\n", trace)
	}
	return nil
}

// writeFile creates path and fills it through enc.
func writeFile(path string, enc func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return errors.Join(enc(f), f.Close())
}

// ParseJournal reads a JSONL journal back into events. Blank lines are
// skipped; a malformed line fails the parse with its line number.
func ParseJournal(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<24)
	var out []Event
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(b, &e); err != nil {
			return nil, fmt.Errorf("obs: journal line %d: %w", line, err)
		}
		out = append(out, e)
	}
	return out, sc.Err()
}
