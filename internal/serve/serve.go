// Package serve is the live-serving layer over a materialized knowledge
// base: a long-running concurrent query server in which any number of
// readers evaluate SPARQL-subset queries against epoch-pinned MVCC
// snapshots (rdf.Snapshot) while a single writer goroutine applies insert
// batches through the incremental engine and publishes a fresh epoch after
// each batch — no stop-the-world, no read locks.
//
// Robustness is the point, not an afterthought:
//
//   - Admission control: a fixed number of execution slots plus a bounded
//     wait queue. When both are full, queries are shed immediately with
//     ErrShed — the queue can never grow without bound, and a shed client
//     learns its fate in microseconds instead of parking forever.
//   - Deadlines: every query runs under a context deadline (the server
//     default, tightened by whatever deadline the caller's ctx already
//     carries) that query.SolveContext checks throughout the join.
//   - Watchdog: a per-query timer cancels and journals queries that
//     overstay the slow-query threshold, so one pathological cross join
//     cannot monopolize a slot for its full deadline budget.
//   - Panic isolation: a panicking query is recovered, counted, journaled,
//     and converted into an error response; the server and every other
//     in-flight query keep running.
//   - Graceful drain: Shutdown stops admission (late arrivals get
//     ErrDraining), lets every admitted query finish, then flushes the
//     writer so no accepted insert — or delete — is lost. Stats.Dropped is
//     the drain contract: it must be zero after Shutdown returns.
//   - Writer survival: a panic while applying a batch is recovered on the
//     writer goroutine itself; the half-applied state is repaired and
//     rematerialized, the previously published snapshot stays untouched,
//     and the batch queue keeps draining.
//
// Deletion goes through the same single writer as insertion: Delete ships a
// batch that the writer retracts DRed-style (reason.Retractor) before
// publishing the next epoch, and once tombstones pass the configured ratio
// the writer compacts the log into a fresh graph — readers never pause,
// because old snapshots pin the old, immutable graph.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"powl/internal/ntriples"
	"powl/internal/obs"
	"powl/internal/owlhorst"
	"powl/internal/query"
	"powl/internal/rdf"
	"powl/internal/reason"
	"powl/internal/rules"
)

var (
	// ErrShed is returned when both the execution slots and the bounded
	// admission queue are full — explicit load shedding.
	ErrShed = errors.New("serve: overloaded, query shed")
	// ErrDraining is returned for work arriving after Shutdown began.
	ErrDraining = errors.New("serve: draining, not admitting")
	// ErrWatchdog wraps the error of a query the slow-query watchdog
	// cancelled — a server-side timeout, distinct from the caller's
	// context being cancelled.
	ErrWatchdog = errors.New("serve: cancelled by slow-query watchdog")
	// ErrNotFound is returned by Explain for a triple the served snapshot
	// does not contain.
	ErrNotFound = errors.New("serve: triple not in closure")
	// ErrNoProvenance is returned by Explain when the KB was built without
	// the provenance side-column.
	ErrNoProvenance = errors.New("serve: provenance not enabled")
)

// KB is the served knowledge base: the closure graph (single-writer), its
// dictionary (safe for concurrent interning), and the compiled instance
// rules the incremental engine closes insert batches under.
type KB struct {
	Dict  *rdf.Dict
	Graph *rdf.Graph
	Rules []rules.Rule
	// Threads is the intra-worker fan-out every writer-side closure
	// (load-time materialize, insert close, retraction rederive, crash
	// recovery) runs at. 0 or 1 fires on the writer goroutine alone.
	Threads int
}

// BuildConfig tunes KB construction.
type BuildConfig struct {
	// Prov enables the derivation side-column before materialization, so
	// the server can answer Explain and serve provenance-guided deletes.
	Prov bool
	// Threads is the intra-worker parallel fan-out for the load-time
	// materialize, carried into the KB for every later writer-side
	// closure. 0 or 1 fires on the calling goroutine alone.
	Threads int
}

// Build compiles base's ontology, materializes the OWL-Horst closure, and
// returns the servable KB — the load-time reasoning the paper trades for
// cheap queries, packaged for serving.
func Build(dict *rdf.Dict, base *rdf.Graph, bc BuildConfig) *KB {
	compiled := owlhorst.Compile(dict, base)
	g := compiled.Start(base)
	if bc.Prov {
		g.EnableProv()
	}
	reason.Forward{Threads: bc.Threads}.Materialize(g, compiled.InstanceRules)
	return &KB{Dict: dict, Graph: g, Rules: compiled.InstanceRules, Threads: bc.Threads}
}

// insertBuffer is the writer's batch channel capacity. Insert and Delete
// block (honouring their ctx) when it is full — backpressure, not unbounded
// buffering.
const insertBuffer = 64

// Config tunes the server's robustness envelope.
type Config struct {
	// MaxInflight is the number of queries executing concurrently;
	// 0 defaults to 8.
	MaxInflight int
	// QueueDepth bounds how many admitted-but-waiting queries may queue
	// beyond the execution slots; 0 defaults to 4×MaxInflight. Arrivals
	// beyond slots+queue are shed.
	QueueDepth int
	// Deadline is the per-query budget, covering queue wait and
	// execution; 0 defaults to 2s. A tighter deadline already on the
	// caller's context wins.
	Deadline time.Duration
	// SlowQuery is the watchdog threshold: a query still running after
	// this long is cancelled and journaled as an offender. 0 disables
	// the watchdog (the deadline still applies).
	SlowQuery time.Duration
	// CompactRatio triggers log compaction after a delete batch once
	// dead/total exceeds it (and CompactMinDead is met). 0 defaults to
	// 0.25; negative disables compaction.
	CompactRatio float64
	// CompactMinDead is the tombstone floor below which compaction never
	// runs, whatever the ratio; 0 defaults to 4096.
	CompactMinDead int
	// Run receives journal events (may be nil).
	Run *obs.Run
}

func (c Config) withDefaults() Config {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 8
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.MaxInflight
	}
	if c.Deadline <= 0 {
		c.Deadline = 2 * time.Second
	}
	if c.CompactRatio == 0 {
		c.CompactRatio = 0.25
	}
	if c.CompactMinDead <= 0 {
		c.CompactMinDead = 4096
	}
	return c
}

// Stats is the server's authoritative accounting, readable at any time and
// final after Shutdown.
type Stats struct {
	Admitted          int64   `json:"admitted"`  // got an execution slot
	Completed         int64   `json:"completed"` // admitted queries that returned (any outcome)
	Shed              int64   `json:"shed"`      // rejected: slots and queue full
	DrainRejected     int64   `json:"drain_rejected"`
	QueueTimeout      int64   `json:"queue_timeout"` // gave up waiting in queue (ctx done)
	Panicked          int64   `json:"panicked"`
	WatchdogCancelled int64   `json:"watchdog_cancelled"`
	DeadlineExceeded  int64   `json:"deadline_exceeded"`
	InsertBatches     int64   `json:"insert_batches"`
	InsertedTriples   int64   `json:"inserted_triples"` // seeds accepted (pre-dedup)
	DerivedTriples    int64   `json:"derived_triples"`  // closure growth incl. seeds
	DeleteBatches     int64   `json:"delete_batches"`
	DeletedTriples    int64   `json:"deleted_triples"`   // requested triples found and removed
	RetractedTriples  int64   `json:"retracted_triples"` // total overdeleted (incl. cone)
	RederivedTriples  int64   `json:"rederived_triples"` // restored after overdeletion
	RetractTotalMs    float64 `json:"retract_total_ms"`  // cumulative writer time in Retract
	Compactions       int64   `json:"compactions"`
	CompactTotalMs    float64 `json:"compact_total_ms"` // cumulative writer pause compacting
	WriterPanics      int64   `json:"writer_panics"`
	Epoch             int64   `json:"epoch"`   // latest published watermark
	Dropped           int64   `json:"dropped"` // admitted - completed; must be 0 after drain
	// Query-latency percentiles in milliseconds, from the server's own
	// log2-bucket histogram (upper estimates, clamped to observed min/max;
	// see obs.HistSnapshot.Percentile). Zero until the first query.
	QueryP50Ms float64 `json:"query_p50_ms"`
	QueryP95Ms float64 `json:"query_p95_ms"`
	QueryP99Ms float64 `json:"query_p99_ms"`
}

// Server is the live query/insert server. Create with New, serve queries
// with Query and inserts with Insert from any number of goroutines, and
// stop with Shutdown.
type Server struct {
	cfg Config
	kb  *KB

	snap atomic.Pointer[rdf.Snapshot]

	sem     chan struct{} // execution slots
	waiters chan struct{} // bounded admission queue

	gate     sync.RWMutex // guards draining against wg.Add races
	draining bool
	queries  sync.WaitGroup // admitted queries in flight
	inserts  sync.WaitGroup // Insert calls in flight

	batches  chan writeBatch
	writerWG sync.WaitGroup
	prog     *reason.Program   // kb.Rules, compiled once for every writer-side closure
	ret      *reason.Retractor // writer-goroutine only

	admitted, completed, shed, drainRejected, queueTimeout  atomic.Int64
	panicked, watchdogCancelled, deadlineExceeded           atomic.Int64
	insertBatches, insertedTriples, derivedTriples, dropped atomic.Int64
	deleteBatches, deletedTriples, retractedTriples         atomic.Int64
	rederivedTriples, compactions, compactNanos             atomic.Int64
	retractNanos                                            atomic.Int64
	writerPanics                                            atomic.Int64

	// latency holds every query's latency; Stats reads its percentiles.
	latency *obs.Histogram

	// testHook, when non-nil, runs inside the query's execution slot
	// before parsing — the seam the panic-isolation test injects through.
	testHook func(text string)
	// writerHook, when non-nil, runs on the writer goroutine after a
	// batch's raw mutations but before closure and publication — the seam
	// the writer-poisoning test injects through.
	writerHook func(b writeBatch)
}

// writeBatch is one unit of writer work: an insert batch or a delete batch.
type writeBatch struct {
	ts  []rdf.Triple
	del bool
}

// New starts a server over kb. The caller hands over ownership of kb.Graph:
// from here on only the server's writer goroutine mutates it. The rule set
// is compiled up front, once: a rule the engines cannot execute (e.g. one
// exceeding their variable-slot budget) is an error here, not a panic in
// the writer loop after the server is live, and every insert close,
// retraction and recovery runs the one Program.
func New(kb *KB, cfg Config) (*Server, error) {
	prog, err := reason.Compile(kb.Rules)
	if err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		kb:      kb,
		sem:     make(chan struct{}, cfg.MaxInflight),
		waiters: make(chan struct{}, cfg.QueueDepth),
		batches: make(chan writeBatch, insertBuffer),
		prog:    prog,
		ret:     &reason.Retractor{Obs: cfg.Run, Threads: kb.Threads},
		latency: &obs.Histogram{},
	}
	// A prov-free KB makes every DELETE fall back to delete-and-
	// rematerialize; the retractor journals each such degradation to Obs.
	s.ret.SetProgram(prog)
	// Queries read every index through snapshots, and only the writer may
	// build one: build them all before the first reader is admitted.
	kb.Graph.BuildIndexes(rdf.AllIndexes)
	sn := kb.Graph.Snapshot()
	s.snap.Store(&sn)
	s.writerWG.Add(1)
	go s.writerLoop()
	s.cfg.Run.Emit(obs.Event{Type: obs.EvServe, TS: s.cfg.Run.Now(),
		Worker: obs.MasterWorker, Name: "start", N: int64(sn.Watermark())})
	return s, nil
}

// Snapshot returns the latest published epoch view — what a query admitted
// right now would see.
func (s *Server) Snapshot() rdf.Snapshot { return *s.snap.Load() }

// Dict exposes the KB dictionary (safe for concurrent interning).
func (s *Server) Dict() *rdf.Dict { return s.kb.Dict }

// Stats returns a consistent-enough point-in-time view of the accounting.
func (s *Server) Stats() Stats {
	lat := s.latency.Snapshot()
	ms := func(p float64) float64 {
		return float64(lat.Percentile(p)) / float64(time.Millisecond)
	}
	return Stats{
		QueryP50Ms:        ms(50),
		QueryP95Ms:        ms(95),
		QueryP99Ms:        ms(99),
		Admitted:          s.admitted.Load(),
		Completed:         s.completed.Load(),
		Shed:              s.shed.Load(),
		DrainRejected:     s.drainRejected.Load(),
		QueueTimeout:      s.queueTimeout.Load(),
		Panicked:          s.panicked.Load(),
		WatchdogCancelled: s.watchdogCancelled.Load(),
		DeadlineExceeded:  s.deadlineExceeded.Load(),
		InsertBatches:     s.insertBatches.Load(),
		InsertedTriples:   s.insertedTriples.Load(),
		DerivedTriples:    s.derivedTriples.Load(),
		DeleteBatches:     s.deleteBatches.Load(),
		DeletedTriples:    s.deletedTriples.Load(),
		RetractedTriples:  s.retractedTriples.Load(),
		RederivedTriples:  s.rederivedTriples.Load(),
		RetractTotalMs:    float64(s.retractNanos.Load()) / float64(time.Millisecond),
		Compactions:       s.compactions.Load(),
		CompactTotalMs:    float64(s.compactNanos.Load()) / float64(time.Millisecond),
		WriterPanics:      s.writerPanics.Load(),
		Epoch:             int64(s.snap.Load().Watermark()),
		Dropped:           s.admitted.Load() - s.completed.Load(),
	}
}

// QueryResponse carries a query's rows plus the epoch they are consistent
// with.
type QueryResponse struct {
	Result *query.Result
	Epoch  int
}

// Query admits, evaluates, and accounts one query. It is safe to call from
// any number of goroutines. The error reports the query's fate: ErrShed or
// ErrDraining without admission; a context error when the deadline,
// watchdog, or caller cancelled it; a parse or panic error otherwise.
func (s *Server) Query(ctx context.Context, text string) (QueryResponse, error) {
	//powl:ignore wallclock per-query deadline anchor and latency measurement for the serve metrics — operator-facing, never part of reasoning output
	start := time.Now()
	ctx, cancel := context.WithTimeout(ctx, s.cfg.Deadline)
	defer cancel()
	release, err := s.admit(ctx, start)
	if err != nil {
		return QueryResponse{}, err
	}
	defer release()
	return s.execute(ctx, cancel, text, start)
}

// admit runs the drain gate and admission control shared by every read
// endpoint: an execution slot immediately, else a bounded queue spot, else
// shed. On success the caller holds a slot and must call release() exactly
// once; admitted/completed accounting is handled here, so Dropped stays zero
// unless a caller genuinely never returns.
func (s *Server) admit(ctx context.Context, start time.Time) (release func(), err error) {
	// Drain gate: registering in-flight work and checking the drain flag
	// must be atomic with respect to Shutdown's flag-then-wait.
	s.gate.RLock()
	if s.draining {
		s.gate.RUnlock()
		s.drainRejected.Add(1)
		return nil, ErrDraining
	}
	s.queries.Add(1)
	s.gate.RUnlock()

	select {
	case s.sem <- struct{}{}:
	default:
		select {
		case s.waiters <- struct{}{}:
			admitted := false
			select {
			case s.sem <- struct{}{}:
				admitted = true
			case <-ctx.Done():
			}
			<-s.waiters
			if !admitted {
				s.queueTimeout.Add(1)
				s.journalQuery("queue_timeout", start, 0)
				s.queries.Done()
				return nil, ctx.Err()
			}
		default:
			s.shed.Add(1)
			s.journalQuery("shed", start, 0)
			s.queries.Done()
			return nil, ErrShed
		}
	}
	s.admitted.Add(1)
	return func() {
		s.completed.Add(1)
		<-s.sem
		s.queries.Done()
	}, nil
}

// execute runs the admitted query under watchdog and panic isolation.
func (s *Server) execute(ctx context.Context, cancel context.CancelFunc, text string, start time.Time) (resp QueryResponse, err error) {
	var wdFired atomic.Bool
	if s.cfg.SlowQuery > 0 {
		wd := time.AfterFunc(s.cfg.SlowQuery, func() {
			wdFired.Store(true)
			s.watchdogCancelled.Add(1)
			s.journalQuery("watchdog", start, 0)
			cancel()
		})
		defer wd.Stop()
	}
	defer func() {
		if r := recover(); r != nil {
			s.panicked.Add(1)
			s.journalQuery("panic", start, 0)
			resp = QueryResponse{}
			err = fmt.Errorf("serve: query panicked: %v\n%s", r, debug.Stack())
		}
	}()

	if s.testHook != nil {
		s.testHook(text)
	}
	q, err := query.Parse(text, s.kb.Dict)
	if err != nil {
		s.journalQuery("parse_error", start, 0)
		return QueryResponse{}, err
	}
	sn := *s.snap.Load()
	res, err := q.SolveContext(ctx, sn)
	//powl:ignore wallclock latency observation for the serve histogram/journal — telemetry, not reasoning state
	lat := time.Since(start)
	s.latency.Observe(lat)
	switch {
	case err == nil:
		s.journalQuery("ok", start, int64(len(res.Rows)))
		return QueryResponse{Result: res, Epoch: sn.Watermark()}, nil
	case wdFired.Load():
		return QueryResponse{}, fmt.Errorf("%w after %v (%v)", ErrWatchdog, s.cfg.SlowQuery, err)
	case errors.Is(err, context.DeadlineExceeded):
		s.deadlineExceeded.Add(1)
		s.journalQuery("deadline", start, 0)
		return QueryResponse{}, err
	default:
		s.journalQuery("cancelled", start, 0)
		return QueryResponse{}, err
	}
}

// ExplainResponse carries one triple's derivation DAG plus the epoch it was
// cut at.
type ExplainResponse struct {
	Doc   *rdf.ExplainDoc
	Epoch int
}

// Explain resolves one N-Triples statement against the latest snapshot and
// returns its derivation DAG. It runs under the same admission control and
// deadline as Query — lineage walks are reads and compete for the same
// slots. maxDepth <= 0 uses rdf.DefaultExplainDepth. Returns ErrNotFound
// when the snapshot does not contain the triple and ErrNoProvenance when
// the KB records no lineage.
func (s *Server) Explain(ctx context.Context, stmt string, maxDepth int) (ExplainResponse, error) {
	//powl:ignore wallclock deadline anchor and latency measurement, as in Query — telemetry only
	start := time.Now()
	ctx, cancel := context.WithTimeout(ctx, s.cfg.Deadline)
	defer cancel()
	release, err := s.admit(ctx, start)
	if err != nil {
		return ExplainResponse{}, err
	}
	defer release()

	// The snapshot is loaded before anything else: s.kb.Graph is swapped by
	// the writer when it compacts, so all reads go through the pinned view.
	sn := *s.snap.Load()
	if !sn.ProvEnabled() {
		s.journalQuery("explain_unavailable", start, 0)
		return ExplainResponse{}, ErrNoProvenance
	}
	st, err := ntriples.NewReader(strings.NewReader(stmt)).Next()
	if err != nil {
		s.journalQuery("parse_error", start, 0)
		return ExplainResponse{}, fmt.Errorf("serve: parsing explain statement: %w", err)
	}
	d := s.kb.Dict
	t := rdf.Triple{S: d.Intern(st.S), P: d.Intern(st.P), O: d.Intern(st.O)}
	node, ok := sn.Explain(t, maxDepth)
	if !ok {
		s.journalQuery("explain_miss", start, 0)
		return ExplainResponse{}, ErrNotFound
	}
	//powl:ignore wallclock latency observation for the serve histogram — telemetry only
	s.latency.Observe(time.Since(start))
	s.journalQuery("explain_ok", start, 1)
	return ExplainResponse{Doc: rdf.NewExplainDoc(d, node), Epoch: sn.Watermark()}, nil
}

func (s *Server) journalQuery(outcome string, start time.Time, rows int64) {
	if s.cfg.Run == nil {
		return
	}
	//powl:ignore wallclock journal latency for a serve event — telemetry only
	dur := int64(time.Since(start))
	s.cfg.Run.Emit(obs.Event{Type: obs.EvQuery, TS: s.cfg.Run.Now(),
		Worker: obs.MasterWorker, Name: outcome,
		Dur: dur, N: rows})
}

// Insert hands a batch of triples to the writer. It blocks (honouring ctx)
// when the writer is insertBuffer batches behind — backpressure instead of
// unbounded queueing. Accepted batches survive Shutdown: the writer drains
// its channel before exiting.
func (s *Server) Insert(ctx context.Context, ts []rdf.Triple) error {
	return s.submit(ctx, ts, false)
}

// Delete hands a batch of triples to the writer for DRed retraction: the
// requested triples are removed, inferences they supported are overdeleted,
// and everything still derivable from the surviving asserted set is
// restored before the next epoch is published. Same admission, drain and
// backpressure contract as Insert — an accepted delete batch is flushed
// before Shutdown returns.
func (s *Server) Delete(ctx context.Context, ts []rdf.Triple) error {
	return s.submit(ctx, ts, true)
}

func (s *Server) submit(ctx context.Context, ts []rdf.Triple, del bool) error {
	if len(ts) == 0 {
		return nil
	}
	s.gate.RLock()
	if s.draining {
		s.gate.RUnlock()
		return ErrDraining
	}
	s.inserts.Add(1)
	s.gate.RUnlock()
	defer s.inserts.Done()

	batch := make([]rdf.Triple, len(ts))
	copy(batch, ts)
	select {
	case s.batches <- writeBatch{ts: batch, del: del}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// writerLoop is the single mutator of kb.Graph: it applies each batch —
// insert or delete — through the incremental engine and publishes the new
// epoch. A batch that panics mid-apply is recovered here: the writer
// repairs its private state, restores the closure fixpoint, and moves on to
// the next batch without ever publishing the half-applied epoch.
func (s *Server) writerLoop() {
	defer s.writerWG.Done()
	for batch := range s.batches {
		s.apply(batch)
	}
}

func (s *Server) apply(batch writeBatch) {
	defer func() {
		if r := recover(); r != nil {
			s.writerPanics.Add(1)
			s.cfg.Run.Emit(obs.Event{Type: obs.EvServe, TS: s.cfg.Run.Now(),
				Worker: obs.MasterWorker, Name: "writer_panic", N: 1})
			s.recoverWriter()
		}
	}()
	g := s.kb.Graph
	before := g.Len()
	if batch.del {
		if s.writerHook != nil {
			s.writerHook(batch)
		}
		//powl:ignore wallclock retraction pause measurement for the serve stats — telemetry only
		t0 := time.Now()
		st := s.ret.Retract(g, batch.ts)
		//powl:ignore wallclock retraction pause measurement for the serve stats — telemetry only
		s.retractNanos.Add(int64(time.Since(t0)))
		s.deleteBatches.Add(1)
		s.deletedTriples.Add(int64(st.Requested))
		s.retractedTriples.Add(int64(st.Overdeleted))
		s.rederivedTriples.Add(int64(st.Rederived + st.Propagated))
		s.maybeCompact()
	} else {
		seeds := batch.ts[:0]
		for _, t := range batch.ts {
			if g.Add(t) {
				seeds = append(seeds, t)
			}
		}
		if s.writerHook != nil {
			s.writerHook(batch)
		}
		if len(seeds) > 0 {
			// The graph was at fixpoint before the seeds went in, so closing
			// over just the seeds re-establishes it (semi-naive delta round).
			s.fire(seeds)
		}
		s.insertBatches.Add(1)
		s.insertedTriples.Add(int64(len(batch.ts)))
		s.derivedTriples.Add(int64(s.kb.Graph.Len() - before))
	}
	sn := s.kb.Graph.Snapshot()
	s.snap.Store(&sn)
	s.cfg.Run.Emit(obs.Event{Type: obs.EvEpoch, TS: s.cfg.Run.Now(),
		Worker: obs.MasterWorker, N: int64(sn.Watermark()),
		N2: int64(s.kb.Graph.Len() - before)})
}

// maybeCompact rewrites the log without tombstones once the dead ratio
// passes the configured threshold. The old graph is never mutated — every
// snapshot pinned against it stays valid, and its memory is reclaimed when
// the last such snapshot is dropped. Writer-goroutine only.
func (s *Server) maybeCompact() {
	g := s.kb.Graph
	dead := g.Dead()
	if s.cfg.CompactRatio < 0 || dead < s.cfg.CompactMinDead ||
		float64(dead) < s.cfg.CompactRatio*float64(g.Len()) {
		return
	}
	//powl:ignore wallclock compaction pause measurement for the serve stats — telemetry only
	start := time.Now()
	s.kb.Graph = g.Compact()
	//powl:ignore wallclock compaction pause measurement for the serve stats — telemetry only
	pause := time.Since(start)
	s.compactions.Add(1)
	s.compactNanos.Add(int64(pause))
	s.cfg.Run.Emit(obs.Event{Type: obs.EvServe, TS: s.cfg.Run.Now(),
		Worker: obs.MasterWorker, Name: "compact",
		Dur: int64(pause), N: int64(dead)})
}

// recoverWriter repairs the graph after a mid-apply panic: the dedup table is
// rebuilt from the log (the only writer-private structure a torn mutation
// can corrupt — posting lists and the provenance column tolerate entries
// above the watermark by design), and the closure fixpoint every later
// batch assumes is restored by rematerializing. The previously published
// snapshot is left exactly as it was; the repaired state is only visible
// from the next successful batch's epoch on.
func (s *Server) recoverWriter() {
	s.kb.Graph.RepairDedup()
	s.fire(s.kb.Graph.Triples())
}

// fire runs the writer's program over kb.Graph from delta at the KB's
// fan-out. Writer-goroutine only; under context.Background the fire loop
// cannot fail.
func (s *Server) fire(delta []rdf.Triple) {
	_, _ = reason.Forward{Threads: s.kb.Threads}.Fire(context.Background(), s.kb.Graph, s.prog, delta)
}

// Shutdown drains the server: new queries and inserts are refused with
// ErrDraining, every admitted query runs to completion, and every accepted
// insert batch is applied and published before the writer exits. Returns
// ctx.Err() if ctx expires first (the drain keeps going in the background;
// Stats continues to update).
func (s *Server) Shutdown(ctx context.Context) error {
	s.gate.Lock()
	already := s.draining
	s.draining = true
	s.gate.Unlock()
	if already {
		return nil
	}
	s.cfg.Run.Emit(obs.Event{Type: obs.EvServe, TS: s.cfg.Run.Now(),
		Worker: obs.MasterWorker, Name: "drain", N: int64(len(s.sem))})

	done := make(chan struct{})
	go func() {
		s.queries.Wait() // every admitted query finished
		s.inserts.Wait() // every Insert call delivered or gave up
		close(s.batches) // writer drains the backlog, then exits
		s.writerWG.Wait()
		s.cfg.Run.Emit(obs.Event{Type: obs.EvServe, TS: s.cfg.Run.Now(),
			Worker: obs.MasterWorker, Name: "drained",
			N: s.admitted.Load() - s.completed.Load()})
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
