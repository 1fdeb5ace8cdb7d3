package obs

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Run is the per-run observer the cluster layers thread through their
// phases: it owns the journal sink, the optional metrics registry, one
// rule collector per worker, and the transport recorder. A nil *Run
// disables everything — every method is nil-safe and the instrumented
// call sites pay one nil check.
type Run struct {
	// Registry receives run-level metrics (may be nil).
	Registry *Registry

	sink      Sink
	start     time.Time
	transport *TransportRecorder

	mu         sync.Mutex
	collectors map[int]*RuleCollector
	pieces     map[int]*PieceCollector
}

// NewRun returns an observer journaling to sink (nil = journal discarded)
// with metrics in reg (nil = no metrics).
func NewRun(sink Sink, reg *Registry) *Run {
	return &Run{
		Registry:   reg,
		sink:       sink,
		start:      time.Now(),
		transport:  &TransportRecorder{},
		collectors: map[int]*RuleCollector{},
	}
}

// Now returns nanoseconds since the run started — the real journal clock.
// A Simulated cluster run is the same round loop on one CPU slot; it stamps
// its phase and round events on the clock rebuilt from per-round phase
// times instead, and everything else (faults, deaths, adoptions,
// checkpoints) on this one.
func (r *Run) Now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.start))
}

// Emit appends one event to the journal.
func (r *Run) Emit(e Event) {
	if r == nil || r.sink == nil {
		return
	}
	r.sink.Emit(e)
}

// Rules returns worker's rule collector, creating it on first use.
func (r *Run) Rules(worker int) *RuleCollector {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.collectors[worker]
	if c == nil {
		c = &RuleCollector{}
		r.collectors[worker] = c
	}
	return c
}

// Pieces returns worker's piece-span collector, creating it on first use.
// The cluster layer attaches it to the worker's context; the parallel
// engine records one span per stratum firing into it.
func (r *Run) Pieces(worker int) *PieceCollector {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.pieces == nil {
		r.pieces = map[int]*PieceCollector{}
	}
	c := r.pieces[worker]
	if c == nil {
		c = &PieceCollector{}
		r.pieces[worker] = c
	}
	return c
}

// Transport returns the run's transport recorder for attaching to
// transports (nil on a nil run).
func (r *Run) Transport() *TransportRecorder {
	if r == nil {
		return nil
	}
	return r.transport
}

// FlushProfiles emits one rule_profile event per (worker, rule) and the
// transport/retry summary events, stamped at ts. The cluster layer calls
// it once, just before run_end.
func (r *Run) FlushProfiles(ts int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	workers := make([]int, 0, len(r.collectors))
	for w := range r.collectors {
		workers = append(workers, w)
	}
	sort.Ints(workers)
	collectors := make([]*RuleCollector, len(workers))
	for i, w := range workers {
		collectors[i] = r.collectors[w]
	}
	pieceWorkers := make([]int, 0, len(r.pieces))
	for w := range r.pieces {
		pieceWorkers = append(pieceWorkers, w)
	}
	sort.Ints(pieceWorkers)
	pieceCollectors := make([]*PieceCollector, len(pieceWorkers))
	for i, w := range pieceWorkers {
		pieceCollectors[i] = r.pieces[w]
	}
	r.mu.Unlock()

	for i, w := range workers {
		snap := collectors[i].Snapshot()
		for _, p := range TopRules(snap, 0) {
			r.Emit(Event{
				Type: EvRuleProfile, TS: ts, Worker: w, Name: p.Name,
				N: p.Firings, N2: p.Matches, N3: p.Derived, N4: p.Duplicate,
				Dur: int64(p.Time),
			})
			r.Registry.Counter("rules." + p.Name + ".firings").Add(p.Firings)
		}
	}
	for i, w := range pieceWorkers {
		for _, sp := range pieceCollectors[i].Snapshot() {
			r.Emit(Event{
				Type: EvPiece, TS: ts, Worker: w,
				Name:  fmt.Sprintf("stratum-%d/%dp", sp.Stratum, sp.Pieces),
				Round: sp.Sweep,
				N:     int64(sp.Delta), N2: int64(sp.Derived), N3: int64(sp.Threads),
				N4: int64(sp.Activations), Dur: int64(sp.Dur),
			})
		}
	}
	r.transport.flush(r, ts)
}

// --- transport accounting ----------------------------------------------------

// PairStats accumulates one ordered worker pair's send-side traffic.
type PairStats struct {
	Msgs    int64
	Triples int64
	Bytes   int64
}

// TransportRecorder accumulates per-peer-pair traffic and retry costs.
// Transports call Batch once per sent message; Retry calls Retried and
// Slept. All methods are nil-safe and take one short lock per message —
// negligible next to serialization, and zero when observability is off
// (the recorder is nil).
type TransportRecorder struct {
	mu      sync.Mutex
	pairs   map[[2]int]*PairStats
	retries map[string]int64
	redials map[[2]int]int64
	slept   time.Duration
}

// Batch records one delivered message of n triples (and, when the
// transport serializes, its payload bytes) from worker `from` to `to`.
func (t *TransportRecorder) Batch(from, to, n int, bytes int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.pairs == nil {
		t.pairs = map[[2]int]*PairStats{}
	}
	key := [2]int{from, to}
	p := t.pairs[key]
	if p == nil {
		p = &PairStats{}
		t.pairs[key] = p
	}
	p.Msgs++
	p.Triples += int64(n)
	p.Bytes += bytes
}

// Redialed records one reconnection of the from->to link (a connection-
// oriented transport re-establishing a broken connection mid-run).
func (t *TransportRecorder) Redialed(from, to int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.redials == nil {
		t.redials = map[[2]int]int64{}
	}
	t.redials[[2]int{from, to}]++
}

// Retried records one retry of the named operation ("send", "recv").
func (t *TransportRecorder) Retried(op string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.retries == nil {
		t.retries = map[string]int64{}
	}
	t.retries[op]++
}

// Slept records backoff time spent between retries.
func (t *TransportRecorder) Slept(d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.slept += d
	t.mu.Unlock()
}

// Pairs returns a copy of the per-pair stats keyed by [from, to].
func (t *TransportRecorder) Pairs() map[[2]int]PairStats {
	out := map[[2]int]PairStats{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for k, v := range t.pairs {
		out[k] = *v
	}
	return out
}

// flush emits one transport event per pair plus one retry event per op.
func (t *TransportRecorder) flush(r *Run, ts int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	type pairRow struct {
		key [2]int
		p   PairStats
	}
	rows := make([]pairRow, 0, len(t.pairs))
	for k, p := range t.pairs {
		rows = append(rows, pairRow{k, *p})
	}
	retries := make(map[string]int64, len(t.retries))
	for op, n := range t.retries {
		retries[op] = n
	}
	redials := make([]pairRow, 0, len(t.redials))
	for k, n := range t.redials {
		redials = append(redials, pairRow{k, PairStats{Msgs: n}})
	}
	slept := t.slept
	t.mu.Unlock()

	sort.Slice(rows, func(i, j int) bool {
		if rows[i].key[0] != rows[j].key[0] {
			return rows[i].key[0] < rows[j].key[0]
		}
		return rows[i].key[1] < rows[j].key[1]
	})
	for _, row := range rows {
		r.Emit(Event{
			Type: EvTransport, TS: ts,
			Worker: row.key[0],
			Name:   fmt.Sprintf("%d->%d", row.key[0], row.key[1]),
			N:      row.p.Msgs, N2: row.p.Triples, Bytes: row.p.Bytes,
		})
		r.Registry.Counter("transport.msgs").Add(row.p.Msgs)
		r.Registry.Counter("transport.triples").Add(row.p.Triples)
		r.Registry.Counter("transport.bytes").Add(row.p.Bytes)
	}
	sort.Slice(redials, func(i, j int) bool {
		if redials[i].key[0] != redials[j].key[0] {
			return redials[i].key[0] < redials[j].key[0]
		}
		return redials[i].key[1] < redials[j].key[1]
	})
	for _, row := range redials {
		r.Emit(Event{
			Type: EvRedial, TS: ts, Worker: row.key[0],
			Name: fmt.Sprintf("%d->%d", row.key[0], row.key[1]),
			N:    row.p.Msgs,
		})
		r.Registry.Counter("transport.redials").Add(row.p.Msgs)
	}
	ops := make([]string, 0, len(retries))
	for op := range retries {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		r.Emit(Event{
			Type: EvRetry, TS: ts, Worker: MasterWorker,
			Name: op, N: retries[op], Dur: int64(slept),
		})
		r.Registry.Counter("transport.retries." + op).Add(retries[op])
	}
}
