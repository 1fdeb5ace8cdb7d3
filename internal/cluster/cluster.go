// Package cluster implements the paper's generic parallel reasoning
// algorithm (§IV, Algorithm 3). A master assigns each worker its base
// tuples and rule set (produced by either partitioning approach); workers
// then proceed in rounds: materialize locally to fixpoint, route newly
// derived tuples to the workers that may need them, barrier, receive, and
// repeat. The run terminates when a round ends with no tuples sent by any
// worker and none in transit (the transports guarantee delivery before the
// barrier completes, so "none in transit" is implied).
//
// Per-worker wall-clock time is split into the categories of the paper's
// Figure 2: Reason (rule engine), IO (send + receive through the
// transport), Sync (waiting on the barrier), and — on the master side —
// Aggregate (joining the worker outputs into one closure).
package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"powl/internal/faultinject"
	"powl/internal/obs"
	"powl/internal/rdf"
	"powl/internal/reason"
	"powl/internal/rules"
	"powl/internal/transport"
)

// Router decides where a newly derived triple must be sent. For the data
// partitioning strategy this consults the ownership table; for rule
// partitioning it matches the triple against the other partitions' rule
// bodies.
type Router interface {
	Destinations(t rdf.Triple, from int) []int
}

// Homes is a Router under which every triple of the fixpoint is held by one
// worker the triple itself names, its home. Data partitioning's owner
// router is one: a triple travels to the owners of its subject and its
// object, so the owner of its subject holds it, or, with an unowned
// subject, the owner of its object. A run under such a router aggregates by
// concatenating each worker's home triples, as the paper's workers
// concatenated their result files.
type Homes interface {
	Router
	// Home returns t's home worker, or -1 when neither term of t is owned.
	Home(t rdf.Triple) int
}

// Assignment is one worker's slice of the problem.
type Assignment struct {
	// Base are the worker's initial tuples (its data partition plus the
	// replicated schema closure).
	Base []rdf.Triple
	// Start, set instead of Base where the base is the whole input, returns
	// a graph of it, built on first call. Workers clone it (a flat copy, far
	// cheaper than inserting Base), concurrently: nothing may write it.
	Start func() *rdf.Graph
	// Rules is the rule set the worker applies (the full compiled set for
	// data partitioning; a subset for rule partitioning).
	Rules []rules.Rule
}

// Tuples returns the assignment's base tuples: Base itself, or a copy of
// the start graph's live triples.
func (a Assignment) Tuples() []rdf.Triple {
	if a.Start != nil {
		return a.Start().Triples()
	}
	return a.Base
}

// Graph returns a fresh graph holding the assignment's base, owned by the
// caller: a clone of Start's graph, with the indexes it has built, or Base
// inserted into a new one, with none.
func (a Assignment) Graph() *rdf.Graph {
	if a.Start != nil {
		return a.Start().Clone()
	}
	g := rdf.NewGraphCap(len(a.Base))
	g.AddAll(a.Base)
	return g
}

// Mode selects how workers execute. Both modes run the same round loop —
// one goroutine per worker, a real barrier — and differ only in how many
// workers may compute at once and in which clock Result reports.
type Mode int

const (
	// Concurrent gives every worker its own CPU slot — the deployment
	// shape. Wall-clock speedups are only meaningful when the host has at
	// least as many cores as workers.
	Concurrent Mode = iota
	// Simulated is the same round loop on one CPU slot: workers take turns,
	// so each phase is measured alone, and the clock is rebuilt from the
	// per-round phase times — each round costs the slowest worker's
	// reason+send plus the slowest receive, the barrier semantics of
	// Algorithm 3 evaluated analytically. This is how the speedup figures
	// are reproduced on hosts with fewer cores than the paper's 16-node
	// cluster (see DESIGN.md, substitutions). Per-worker Sync is the time
	// the worker would have waited for the round's slowest peer. The
	// failure detector, a real-time watch, does not run: turn-taking
	// workers trail the frontier by design.
	Simulated
)

// Config configures a parallel run.
type Config struct {
	Engine    reason.Engine
	Transport transport.Transport
	Router    Router
	Mode      Mode
	// MaxRounds caps the number of rounds as a safety net; 0 means 1000.
	MaxRounds int
	// RoundTimeout bounds one worker's round — reason, send, barrier wait
	// and receive, and the waits for a CPU slot between them. A worker that
	// blows the deadline (most often: stuck at the barrier because a peer
	// died) aborts the run with context.DeadlineExceeded instead of hanging
	// forever. 0 disables.
	RoundTimeout time.Duration
	// Obs, when non-nil, journals the run: per-worker phase spans each
	// round, per-rule profiles, and transport totals. The phase events
	// carry exactly the durations accumulated into Timings, so a journal
	// reconciles with Result.PerWorker. nil disables all recording.
	Obs *obs.Run
	// Recovery, when non-nil, arms transport-generic worker recovery:
	// workers checkpoint per-round deltas into Recovery.Store, a failure
	// detector (Concurrent mode) watches barrier progress, and a dead
	// worker's partition is adopted by the lowest-numbered live worker —
	// the closure still equals the serial fixpoint. nil keeps the original
	// fail-stop behavior.
	Recovery *RecoveryConfig
	// Inject holds optional per-worker fault schedules: Inject[i], when
	// non-nil, drives worker i (crash-at-round). Entries beyond the slice
	// mean no injection. Transport-level faults (send/recv failures,
	// connection drops) belong on a faultinject.Transport wrapper instead.
	Inject []*faultinject.Injector
	// Provenance enables derivation recording on every worker graph and on
	// the aggregated result: engines record rule + premises per derived
	// triple, shipped deltas carry lineage when the transport implements
	// transport.LineageCarrier, checkpoints carry it, and the aggregate
	// merge preserves it — so Explain works on the merged closure and
	// adopted partitions keep their lineage. Transports without lineage
	// support degrade to lineage-free exchange for the triples that cross
	// them; the closure itself is unaffected.
	Provenance bool
}

// injector returns worker i's fault injector; nil (no injection) is a valid
// receiver for every Injector method.
func (cfg Config) injector(i int) *faultinject.Injector {
	if i < len(cfg.Inject) {
		return cfg.Inject[i]
	}
	return nil
}

// Timings is the per-worker cost breakdown.
type Timings struct {
	Reason    time.Duration
	IO        time.Duration
	Sync      time.Duration
	Aggregate time.Duration // only set on the aggregated result
	Rounds    int
	// Derived counts the triples this worker derived (beyond its base),
	// the per-processor term of the paper's OR metric.
	Derived int
	// Sent counts triples shipped to other workers.
	Sent int
}

// Result of a parallel run.
type Result struct {
	// Graph is the closure. Under a Homes router without provenance it is
	// the concatenation of every live worker's home triples, with nothing
	// built beyond the log: no index, and a dedup table built on first use.
	// Otherwise it is the first live worker's final graph with the other
	// live workers' unioned into it, whose derived marks cover that
	// worker's own derivations only (Union inserts as base); only
	// reason.Retractor on a served graph reads such marks.
	Graph *rdf.Graph
	// PerWorker holds each worker's timing breakdown.
	PerWorker []Timings
	// OutputSizes[i] is worker i's final local graph size.
	OutputSizes []int
	// Rounds is the number of rounds until global quiescence.
	Rounds int
	// Elapsed is the parallel elapsed time: wall-clock in Concurrent mode,
	// the barrier-reconstructed time in Simulated mode. Aggregation is
	// included in both.
	Elapsed time.Duration
	// RoundStats (Simulated mode only) records, per round, the maxima that
	// determined the round's simulated duration.
	RoundStats []RoundStat
	// Recovered maps each dead worker's id to the live worker that adopted
	// its partition (recovery runs only; empty when nobody died).
	Recovered map[int]int
}

// RoundStat is one round's cost profile in Simulated mode.
type RoundStat struct {
	// MaxWork is the slowest worker's reason+send time this round.
	MaxWork time.Duration
	// MaxRecv is the slowest receive.
	MaxRecv time.Duration
	// Sent is the total number of tuples shipped this round.
	Sent int
}

// Run executes Algorithm 3 over the given assignments. It is
// RunContext with a background context — uncancellable, as the original
// fail-stop deployment was.
func Run(cfg Config, assigns []Assignment) (*Result, error) {
	return RunContext(context.Background(), cfg, assigns)
}

// check validates the fields every run needs and normalizes Recovery, so all
// of a run's workers share one checkpoint store.
func (cfg *Config) check() error {
	if cfg.Engine == nil || cfg.Transport == nil || cfg.Router == nil {
		return fmt.Errorf("cluster: config requires Engine, Transport and Router")
	}
	if cfg.MaxRounds <= 0 {
		cfg.MaxRounds = 1000
	}
	if cfg.Recovery != nil {
		rc := cfg.Recovery.withDefaults()
		cfg.Recovery = &rc
	}
	return nil
}

// RunContext executes Algorithm 3 over the given assignments under ctx.
// Cancelling ctx aborts the run (the barrier wakes all workers), and
// cfg.RoundTimeout additionally bounds each worker's individual rounds.
//
//powl:ignore wallclock Concurrent-mode Elapsed is defined as real wall-clock; a Simulated run's retime step replaces it with the rebuilt clock.
func RunContext(ctx context.Context, cfg Config, assigns []Assignment) (*Result, error) {
	k := len(assigns)
	if k == 0 {
		return nil, fmt.Errorf("cluster: no assignments")
	}
	if err := cfg.check(); err != nil {
		return nil, err
	}
	cfg.Obs.Emit(obs.Event{Type: obs.EvRunStart, TS: cfg.Obs.Now(),
		Worker: obs.MasterWorker, Name: cfg.Engine.Name(), N: int64(k)})

	start := time.Now()
	// One CPU slot per worker, or one for the whole Simulated run; there
	// the workers' real-clock phase spans are dropped, since retime
	// journals them on the rebuilt clock.
	slots, spans := k, cfg.Obs
	if cfg.Mode == Simulated {
		slots, spans = 1, nil
	}
	cpu := make(chan struct{}, slots)
	m := local{bar: newBarrier(k)}
	if cfg.Recovery != nil {
		m.coord = newCoordinator(k, *cfg.Recovery, m.bar, cfg.Obs, assigns)
	}
	// One goroutine per worker graph: each graph still has one writer.
	workers := make([]*worker, k)
	eachWorker(k, func(i int) { workers[i] = newWorker(cfg, i, assigns[i], m, cpu, spans) })

	coord := m.coord
	errs := make([]error, k)
	rounds := make([]int, k)
	var wg sync.WaitGroup
	for i, w := range workers {
		// Under recovery each worker gets its own cancellable context so
		// the coordinator can interrupt one declared dead mid-phase without
		// touching its peers.
		wctx := ctx
		if coord != nil {
			wctx, coord.cancels[i] = context.WithCancel(ctx)
		}
		wg.Add(1)
		go func(w *worker, wctx context.Context) {
			defer wg.Done()
			rounds[w.id], errs[w.id] = w.run(wctx, cfg, 0)
		}(w, wctx)
	}
	detCancel := func() {}
	if coord != nil && cfg.Mode == Concurrent {
		var detCtx context.Context
		detCtx, detCancel = context.WithCancel(context.Background())
		go coord.detect(detCtx)
	}
	wg.Wait()
	detCancel()
	if coord != nil {
		for i, cancel := range coord.cancels {
			cancel()
			// A stepped-aside worker is not a run failure: its partition was
			// adopted and the survivors finished the fixpoint.
			if errors.Is(errs[i], errWorkerDead) {
				errs[i] = nil
			}
		}
		if cerr := coord.runErr(); cerr != nil {
			return nil, cerr
		}
	}
	if err := firstCause(errs); err != nil {
		return nil, err
	}

	aggAt := cfg.Obs.Now()
	res := aggregate(cfg, workers, coord)
	res.Rounds = slices.Max(rounds)
	res.Elapsed = time.Since(start)
	if cfg.Mode == Simulated {
		aggAt = retime(cfg.Obs, workers, res)
	}
	finishRun(cfg.Obs, res, aggAt)
	return res, nil
}

// RunWorker runs worker id's round loop in this process, reaching its peers
// through cfg.Transport and m: the deployment where every worker is an OS
// process of its own. A start above 0 rejoins a run in progress: the worker
// first replays its own persisted state — base, checkpoints, and its inbox
// of the rounds before start — through the adoption path, then enters the
// loop at round start. It returns the worker's final graph.
func RunWorker(ctx context.Context, cfg Config, id, start int, m Membership) (*rdf.Graph, Timings, error) {
	if err := cfg.check(); err != nil {
		return nil, Timings{}, err
	}
	a, err := m.Assignment(id)
	if err != nil {
		return nil, Timings{}, err
	}
	w := newWorker(cfg, id, a, m, make(chan struct{}, 1), cfg.Obs)
	if start > 0 {
		if _, err := w.absorb(ctx, cfg, id, start-1); err != nil {
			return nil, w.tm, fmt.Errorf("cluster: worker %d rejoin: %w", id, err)
		}
		w.shipped = w.graph.Len()
	}
	_, err = w.run(ctx, cfg, start)
	cfg.Obs.FlushProfiles(cfg.Obs.Now())
	return w.graph, w.tm, err
}

// finishRun emits the master-side tail of the journal: the aggregation
// span, the per-worker rule profiles and transport totals, and the run_end
// marker. end is the journal timestamp at which the parallel phase finished
// — the real clock in Concurrent mode, the reconstructed clock in Simulated
// mode.
func finishRun(o *obs.Run, res *Result, end int64) {
	agg := int64(res.PerWorker[0].Aggregate)
	o.Emit(obs.Event{Type: obs.EvPhase, TS: end, Dur: agg,
		Worker: obs.MasterWorker, Round: res.Rounds, Phase: obs.PhaseAggregate})
	o.FlushProfiles(end + agg)
	o.Emit(obs.Event{Type: obs.EvRunEnd, TS: end + agg, Dur: int64(res.Elapsed),
		Worker: obs.MasterWorker, N: int64(res.Rounds)})
}

// emitPhase records one completed phase slice that ended "now" on the real
// clock: the start is reconstructed by subtracting the measured duration.
// A nil observer (a Simulated run's workers) discards the event.
func emitPhase(o *obs.Run, worker, round int, phase string, d time.Duration, n int64) {
	o.Emit(obs.Event{Type: obs.EvPhase, TS: o.Now() - int64(d), Dur: int64(d),
		Worker: worker, Round: round, Phase: phase, N: n})
}

type worker struct {
	id    int
	graph *rdf.Graph
	rules []rules.Rule
	// shipped is the graph-log watermark of routed knowledge: every triple
	// at log offset < shipped is base, already routed, or received (global
	// knowledge). The graph log is append-only and deduplicated, so the send
	// phase's delta is exactly TriplesSince(shipped) — no per-triple
	// membership map, no full-graph walk per round.
	shipped int
	// reship holds adopted checkpoint triples that sit below the watermark
	// but still need routing: a dead peer may have derived them without
	// completing its sends, so the adopter re-routes them (receivers
	// deduplicate). Empty except after an adoption or rejoin.
	reship map[rdf.Triple]struct{}
	tm     Timings
	// materialized is set after the first full materialization; later
	// rounds only need to close over the tuples received since.
	materialized bool
	// received holds the tuples absorbed in the previous round's receive
	// phase — the seeds of the next incremental materialization.
	received []rdf.Triple
	// m is the worker's view of its peers: barrier, deaths, adoptions.
	m Membership
	// store receives the worker's per-round deltas (nil without recovery).
	store CheckpointStore
	// inj optionally injects this worker's scheduled faults (crash-at-round).
	inj *faultinject.Injector
	// adopted lists the dead peers' partition ids this worker absorbed;
	// their inboxes are drained alongside its own and sends to them are
	// short-circuited (the partition lives here now).
	adopted []int
	// cpu holds the run's CPU slots: a worker takes one while it computes
	// and gives it back before the barrier.
	cpu chan struct{}
	// spans journals the worker's phase spans on the real clock (nil in a
	// Simulated run, whose spans retime journals).
	spans *obs.Run
	// times records each completed round's phase durations, for retime.
	times []roundTime
}

// roundTime is one worker's measured cost of one completed round.
type roundTime struct {
	reason, send, recv time.Duration
	sent               int
}

// newWorker gives worker id a fresh graph holding its base tuples and the
// indexes a forward closure under its rules joins through, so the reason
// phase times reasoning alone.
func newWorker(cfg Config, id int, a Assignment, m Membership, cpu chan struct{}, spans *obs.Run) *worker {
	g := a.Graph()
	g.BuildIndexes(reason.JoinIndexes(a.Rules))
	if cfg.Provenance {
		// The backfill records every base tuple as asserted.
		g.EnableProv()
	}
	w := &worker{id: id, graph: g, rules: a.Rules, m: m, inj: cfg.injector(id), cpu: cpu, spans: spans,
		// Base tuples are known to every worker that should have them (the
		// partitioner placed them); the shipping watermark starts past them
		// so they are never re-shipped.
		shipped: g.Len(),
	}
	if cfg.Recovery != nil {
		w.store = cfg.Recovery.Store
	}
	return w
}

// phaseReason runs the local materialization to fixpoint (Algorithm 3
// step 3) and returns its duration. The first round materializes fully;
// subsequent rounds exploit that the graph was at fixpoint before the
// received tuples arrived: nothing received means nothing to do, otherwise
// the engine closes over just the received seeds.
//
//powl:ignore wallclock measures the real phase duration that feeds Timings and, in Simulated mode, the clock retime rebuilds — an input to the cost model, not a timestamp in its output.
func (w *worker) phaseReason(ctx context.Context, cfg Config) (time.Duration, error) {
	// Attach the worker's rule collector so the engines profile per-rule
	// work, and its piece collector so the fire loop journals one
	// span per stratum firing; with Obs nil both return ctx unchanged.
	ctx = obs.ContextWithRules(ctx, cfg.Obs.Rules(w.id))
	ctx = obs.ContextWithPieces(ctx, cfg.Obs.Pieces(w.id))
	t0 := time.Now()
	var n int
	var err error
	switch {
	case !w.materialized:
		n, err = cfg.Engine.MaterializeCtx(ctx, w.graph, w.rules)
		w.materialized = true
	case len(w.received) == 0:
		// Fixpoint unchanged since last round.
	default:
		n, err = cfg.Engine.MaterializeFromCtx(ctx, w.graph, w.rules, w.received)
	}
	w.tm.Derived += n
	w.received = w.received[:0]
	d := time.Since(t0)
	w.tm.Reason += d
	if err != nil {
		return d, fmt.Errorf("cluster: worker %d reason: %w", w.id, err)
	}
	return d, nil
}

// phaseSend routes every not-yet-shipped triple (step 4) and returns the
// number sent and the phase duration. The delta is read straight off the
// graph's append-only log above the shipping watermark — the reason phase's
// new derivations — plus any adopted checkpoint triples queued for
// re-routing. With provenance on, each triple's derivation record rides
// along to the checkpoint and, on a transport.LineageCarrier, to the peers.
//
//powl:ignore wallclock measures the real phase duration that feeds Timings and the clock a Simulated run rebuilds.
func (w *worker) phaseSend(ctx context.Context, cfg Config, round int) (int, time.Duration, error) {
	t0 := time.Now()
	prov := w.graph.Prov() != nil
	fresh := w.graph.TriplesSince(w.shipped)
	delta := make([]rdf.Triple, 0, len(fresh)+len(w.reship))
	var lins []rdf.Lineage
	outbox := map[int][]rdf.Triple{}
	linbox := map[int][]rdf.Lineage{}
	route := func(t rdf.Triple) {
		delta = append(delta, t)
		var lin rdf.Lineage
		hasLin := false
		if prov {
			if lin, hasLin = w.graph.LineageOf(t); hasLin {
				lins = append(lins, lin)
			}
		}
		for _, dst := range cfg.Router.Destinations(t, w.id) {
			// A destination this worker adopted is this worker: the triple
			// is already in its graph and marked sent.
			if slices.Contains(w.adopted, dst) {
				continue
			}
			outbox[dst] = append(outbox[dst], t)
			if hasLin {
				linbox[dst] = append(linbox[dst], lin)
			}
		}
	}
	for _, t := range fresh {
		route(t)
	}
	w.shipped = w.graph.Len()
	if len(w.reship) > 0 {
		// Adopted checkpoint triples, in sorted order: map order would make
		// the send sequence differ from run to run.
		rs := make([]rdf.Triple, 0, len(w.reship))
		for t := range w.reship {
			rs = append(rs, t)
		}
		sort.Slice(rs, func(i, j int) bool { return rs[i].Less(rs[j]) })
		for _, t := range rs {
			route(t)
		}
		clear(w.reship)
	}
	// Checkpoint the delta before any send leaves: if this worker dies
	// mid-send, its adopter replays the delta and re-routes it (receivers
	// deduplicate), so a half-finished send phase loses nothing.
	if w.store != nil && len(delta) > 0 {
		if err := w.store.Save(w.id, round, delta); err != nil {
			return 0, 0, fmt.Errorf("cluster: worker %d checkpoint: %w", w.id, err)
		}
		if err := w.store.SaveLineage(w.id, round, lins); err != nil {
			return 0, 0, fmt.Errorf("cluster: worker %d lineage checkpoint: %w", w.id, err)
		}
		cfg.Obs.Emit(obs.Event{Type: obs.EvCheckpoint, TS: cfg.Obs.Now(),
			Worker: w.id, Round: round, N: int64(len(delta))})
	}
	// Send in ascending destination order: map order would make the send
	// sequence — and therefore which send an injected transport fault hits —
	// differ from run to run.
	dsts := make([]int, 0, len(outbox))
	for dst := range outbox {
		dsts = append(dsts, dst)
	}
	sort.Ints(dsts)
	lc, _ := cfg.Transport.(transport.LineageCarrier)
	nSent := 0
	for _, dst := range dsts {
		ts := outbox[dst]
		if err := cfg.Transport.Send(ctx, round, w.id, dst, ts); err != nil {
			return 0, 0, fmt.Errorf("cluster: worker %d send: %w", w.id, err)
		}
		if lc != nil && prov {
			if err := lc.SendLineage(ctx, round, w.id, dst, linbox[dst]); err != nil {
				return 0, 0, fmt.Errorf("cluster: worker %d send lineage: %w", w.id, err)
			}
		}
		nSent += len(ts)
	}
	w.tm.Sent += nSent
	d := time.Since(t0)
	w.tm.IO += d
	return nSent, d, nil
}

// phaseRecv absorbs the tuples other workers sent this round (step 5),
// including anything addressed to partitions this worker adopted — peers
// keep routing to the dead worker's id, and its mailbox now drains here.
//
//powl:ignore wallclock measures the real phase duration that feeds Timings and the clock a Simulated run rebuilds.
func (w *worker) phaseRecv(ctx context.Context, cfg Config, round int) (time.Duration, error) {
	t0 := time.Now()
	// Lineage of the received triples, when the transport ships it and this
	// worker records provenance. Records are matched by triple value: the
	// triple files or boxes and the lineage ones are read independently, so
	// positional alignment cannot be assumed.
	lc, _ := cfg.Transport.(transport.LineageCarrier)
	if w.graph.Prov() == nil {
		lc = nil
	}
	var in []rdf.Triple
	var lins []rdf.Lineage
	for _, to := range append([]int{w.id}, w.adopted...) {
		ts, err := cfg.Transport.Recv(ctx, round, to)
		if err != nil {
			return 0, fmt.Errorf("cluster: worker %d recv (inbox %d): %w", w.id, to, err)
		}
		if in == nil {
			in = ts // the common single inbox: no copy
		} else {
			in = append(in, ts...)
		}
		if lc != nil {
			ls, err := lc.RecvLineage(ctx, round, to)
			if err != nil {
				return 0, fmt.Errorf("cluster: worker %d recv lineage (inbox %d): %w", w.id, to, err)
			}
			lins = append(lins, ls...)
		}
	}
	// Checkpoint received tuples before absorbing them: they may seed
	// derivations that exist nowhere else once the senders have marked them
	// shipped, so an adopter of *this* worker must be able to replay them.
	if w.store != nil && len(in) > 0 {
		if err := w.store.Save(w.id, round, in); err != nil {
			return 0, fmt.Errorf("cluster: worker %d recv checkpoint: %w", w.id, err)
		}
		if err := w.store.SaveLineage(w.id, round, lins); err != nil {
			return 0, fmt.Errorf("cluster: worker %d recv lineage checkpoint: %w", w.id, err)
		}
	}
	var linMap map[rdf.Triple]rdf.Lineage
	for _, l := range lins {
		if linMap == nil {
			linMap = make(map[rdf.Triple]rdf.Lineage, len(lins))
		}
		linMap[l.T] = l
	}
	for _, t := range in {
		added := false
		if lin, ok := linMap[t]; ok {
			added = w.graph.AddWithLineage(t, lin)
		} else {
			added = w.graph.Add(t)
		}
		if added {
			w.received = append(w.received, t)
		}
	}
	// Received tuples are already global knowledge; advancing the watermark
	// past them means the next send phase never re-ships them. Receive is the
	// round's last phase, so everything above the send-phase watermark here
	// is exactly what this receive absorbed.
	w.shipped = w.graph.Len()
	d := time.Since(t0)
	w.tm.IO += d
	return d, nil
}

// ErrPeerAbort is returned by workers whose barrier was torn down because
// some other worker failed; that worker's own error is the root cause.
var ErrPeerAbort = errors.New("cluster: aborted by peer failure")

// firstCause picks the run's root-cause error: the first worker error that is
// not a mere peer-abort echo, falling back to any error at all.
func firstCause(errs []error) error {
	var fallback error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, ErrPeerAbort) {
			return err
		}
		if fallback == nil {
			fallback = err
		}
	}
	return fallback
}

// roundCtx derives the context governing one worker-round: the run context,
// tightened by the per-round deadline when one is configured.
func roundCtx(ctx context.Context, cfg Config) (context.Context, context.CancelFunc) {
	if cfg.RoundTimeout > 0 {
		return context.WithTimeout(ctx, cfg.RoundTimeout)
	}
	return ctx, func() {}
}

// ErrCrashed marks a worker stopped by its fault injector's crash schedule
// with nobody left to adopt its partition (no recovery in this process).
var ErrCrashed = errors.New("cluster: worker crashed (fault injection)")

// run is one worker's round loop from round start on; in-process runs and
// node processes differ only in the Membership behind it, and the two modes
// only in the CPU slots the workers take turns on.
func (w *worker) run(ctx context.Context, cfg Config, round int) (int, error) {
	for ; round < cfg.MaxRounds; round++ {
		rctx, cancel := roundCtx(ctx, cfg)
		totalSent, err := w.round(rctx, cfg, round)
		cancel()
		if err != nil {
			return round, err
		}
		// Termination: a full round in which nobody sent anything.
		if totalSent == 0 {
			round++
			break
		}
	}
	w.tm.Rounds = round
	return round, nil
}

// round runs one round of Algorithm 3 under ctx — adopt, reason, send,
// barrier, receive — and returns the run-wide sent count. The worker holds
// a CPU slot while it computes, never while it waits at the barrier.
//
//powl:ignore wallclock barrier-wait duration is a real measurement (a Simulated run's retime replaces it with the gap to the round's slowest worker).
func (w *worker) round(ctx context.Context, cfg Config, round int) (int, error) {
	var rt roundTime
	err := w.hold(ctx, func() error {
		// Scheduled fail-stop: the worker dies at the top of the round,
		// before doing any of its work. In-process recovery takes its own
		// report of the death (the detector would find it anyway, just
		// slower) and the worker steps aside; otherwise the run aborts, or —
		// in a node process — peers see its markers stop.
		if w.inj.Crash(round) {
			cfg.Obs.Emit(obs.Event{Type: obs.EvFault, TS: cfg.Obs.Now(),
				Worker: w.id, Round: round, Name: "crash"})
			if !w.m.Died(w.id, round, "crash") {
				return fmt.Errorf("%w: worker %d at round %d", ErrCrashed, w.id, round)
			}
		}
		if w.m.Dead(w.id) {
			return errWorkerDead
		}
		if err := w.adoptPending(ctx, cfg, round); err != nil {
			return err
		}
		var err error
		if rt.reason, err = w.phaseReason(ctx, cfg); err != nil {
			return err
		}
		emitPhase(w.spans, w.id, round, obs.PhaseReason, rt.reason, 0)
		if rt.sent, rt.send, err = w.phaseSend(ctx, cfg, round); err != nil {
			return err
		}
		emitPhase(w.spans, w.id, round, obs.PhaseSend, rt.send, int64(rt.sent))
		return nil
	})
	if err != nil {
		return 0, w.stepAsideOr(err)
	}

	// Barrier with global sent-count reduction. The round deadline covers
	// the wait: a worker stuck here because a peer died wakes with
	// DeadlineExceeded instead of hanging forever.
	t0 := time.Now()
	totalSent, err := w.m.Sync(ctx, w.id, round, rt.sent)
	syncD := time.Since(t0)
	w.tm.Sync += syncD
	if errors.Is(err, ErrPeerAbort) {
		return 0, ErrPeerAbort
	}
	if err != nil {
		return 0, w.stepAsideOr(
			fmt.Errorf("cluster: worker %d barrier (round %d): %w", w.id, round, err))
	}
	// Declared dead while waiting (a detector false positive, or a
	// cancellation that lost the race with the release): the partition has
	// been reassigned, so step aside rather than double-own it.
	if w.m.Dead(w.id) {
		return 0, errWorkerDead
	}
	emitPhase(w.spans, w.id, round, obs.PhaseSync, syncD, 0)

	err = w.hold(ctx, func() (err error) {
		rt.recv, err = w.phaseRecv(ctx, cfg, round)
		return err
	})
	if err != nil {
		return 0, w.stepAsideOr(err)
	}
	emitPhase(w.spans, w.id, round, obs.PhaseRecv, rt.recv, 0)
	w.times = append(w.times, rt)
	return totalSent, nil
}

// hold runs f on one of the run's CPU slots, waiting under ctx for a free one.
func (w *worker) hold(ctx context.Context, f func() error) error {
	select {
	case w.cpu <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	defer func() { <-w.cpu }()
	return f()
}

// retime rebuilds a Simulated run's parallel clock from the phase times its
// turn-taking workers measured alone: each round costs the slowest worker's
// reason+send plus the slowest receive, and a worker's Sync is its gap to
// the round's slowest worker — the time it would have waited at the
// barrier. It sets res.Elapsed (aggregation included), res.RoundStats and
// the per-worker Sync, and journals the rounds on that clock: worker i's
// reason span at the round's start, its send right after, its barrier wait
// up to the slowest worker, every receive after that — the parallel
// schedule the rebuilt clock asserts, not the turns that measured it. A
// dead worker stops counting at the round it died in. It returns the
// rebuilt end of the parallel phase.
func retime(o *obs.Run, workers []*worker, res *Result) int64 {
	for i := range res.PerWorker {
		res.PerWorker[i].Sync = 0
	}
	var clock time.Duration
	for round := 0; round < res.Rounds; round++ {
		vt := int64(clock)
		o.Emit(obs.Event{Type: obs.EvRoundStart, TS: vt,
			Worker: obs.MasterWorker, Round: round})
		var st RoundStat
		for _, w := range workers {
			if round < len(w.times) {
				t := w.times[round]
				st.MaxWork = max(st.MaxWork, t.reason+t.send)
				st.MaxRecv = max(st.MaxRecv, t.recv)
				st.Sent += t.sent
			}
		}
		for i, w := range workers {
			if round >= len(w.times) {
				continue
			}
			t := w.times[round]
			work := t.reason + t.send
			res.PerWorker[i].Sync += st.MaxWork - work
			for _, e := range []obs.Event{
				{TS: vt, Dur: int64(t.reason), Phase: obs.PhaseReason},
				{TS: vt + int64(t.reason), Dur: int64(t.send), Phase: obs.PhaseSend, N: int64(t.sent)},
				{TS: vt + int64(work), Dur: int64(st.MaxWork - work), Phase: obs.PhaseSync},
				{TS: vt + int64(st.MaxWork), Dur: int64(t.recv), Phase: obs.PhaseRecv},
			} {
				e.Type, e.Worker, e.Round = obs.EvPhase, w.id, round
				o.Emit(e)
			}
		}
		clock += st.MaxWork + st.MaxRecv
		o.Emit(obs.Event{Type: obs.EvRoundEnd, TS: int64(clock),
			Dur: int64(st.MaxWork + st.MaxRecv), Worker: obs.MasterWorker,
			Round: round, N: int64(st.Sent)})
		res.RoundStats = append(res.RoundStats, st)
	}
	// Aggregation is real work on the master; it counts at its measured
	// cost on top of the rebuilt parallel time.
	res.Elapsed = clock + res.PerWorker[0].Aggregate
	return int64(clock)
}

// aggregate joins the live workers' outputs into the run's closure and
// records every worker's size. It is the paper's Figure 2 "aggregation",
// the one timed step of the master. Their implementation concatenated the
// workers' result files; under a Homes router without provenance so does
// this one (homeTriples): each triple is taken from its home alone, so the
// pieces are disjoint and need no deduplication. Otherwise it unions the
// other live workers into the first live worker's graph in id order — the
// log order, run to run, of a union into a fresh graph, and with
// provenance the first derivation wins (Union carries lineage).
//
//powl:ignore wallclock aggregation is real master-side work, timed on the real clock in both modes (Simulated adds it on top of the reconstructed time).
func aggregate(cfg Config, workers []*worker, coord *coordinator) *Result {
	res := &Result{
		PerWorker:   make([]Timings, len(workers)),
		OutputSizes: make([]int, len(workers)),
	}
	if coord != nil {
		res.Recovered = coord.recoveredMap()
	}
	var live []*worker
	for i, w := range workers {
		res.PerWorker[i] = w.tm
		// A dead worker's graph died with it: its partition was
		// reconstructed by its adopter, whose graph is aggregated instead.
		// Excluding it here is what makes the recovery tests honest.
		if coord.isDead(w.id) {
			continue
		}
		res.OutputSizes[i] = w.graph.Len()
		live = append(live, w)
	}
	aggStart := time.Now()
	if homes, ok := cfg.Router.(Homes); ok && !cfg.Provenance {
		res.Graph = rdf.FromDistinct(homeTriples(homes, live, len(workers), res.Recovered))
	} else {
		res.Graph = live[0].graph
		for _, w := range live[1:] {
			res.Graph.Union(w.graph)
		}
	}
	agg := time.Since(aggStart)
	for i := range res.PerWorker {
		res.PerWorker[i].Aggregate = agg
	}
	return res
}

// homeTriples concatenates, in worker order, the triples each live worker
// holds as their home: the home homes names, or for a dead home the worker
// that adopted it (adopter). A triple with no owned term is kept by the
// lowest live worker that holds it: the replicated schema once, and a
// conclusion only some workers drew (a rule head with constant ends) too.
// Each worker's log is scanned on a goroutine of its own, once to count
// and once to copy into its region of the result; only the unowned
// triples are checked against other graphs, on this goroutine.
func homeTriples(homes Homes, live []*worker, k int, adopter map[int]int) []rdf.Triple {
	at := make([]int, k) // at[h] is the id of the live worker holding home h
	for h := range at {
		at[h] = h
		if a, ok := adopter[h]; ok {
			at[h] = a
		}
	}
	logs := make([][]rdf.Triple, len(live))
	for i, w := range live {
		logs[i] = w.graph.Snapshot().Triples()
	}
	counts := make([]int, len(live))
	unowned := make([][]rdf.Triple, len(live))
	eachWorker(len(live), func(i int) {
		n := 0
		for _, t := range logs[i] {
			switch h := homes.Home(t); {
			case h < 0:
				unowned[i] = append(unowned[i], t)
			case at[h] == live[i].id:
				n++
			}
		}
		counts[i] = n
	})
	total := 0
	for i := range live {
		kept := unowned[i][:0]
		for _, t := range unowned[i] {
			held := false
			for _, w := range live[:i] {
				if held = w.graph.Has(t); held {
					break
				}
			}
			if !held {
				kept = append(kept, t)
			}
		}
		unowned[i] = kept
		total += counts[i] + len(kept)
	}
	out := make([]rdf.Triple, total)
	regions := make([][]rdf.Triple, len(live))
	lo := 0
	for i := range live {
		regions[i] = out[lo : lo+counts[i]]
		lo += counts[i]
		lo += copy(out[lo:], unowned[i])
	}
	eachWorker(len(live), func(i int) {
		n := 0
		for _, t := range logs[i] {
			if h := homes.Home(t); h >= 0 && at[h] == live[i].id {
				regions[i][n] = t
				n++
			}
		}
	})
	return out
}

// eachWorker runs f(0), …, f(n-1) on goroutines of their own and returns
// when all have.
func eachWorker(n int, f func(i int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f(i)
		}(i)
	}
	wg.Wait()
}

// barrier is a reusable k-party barrier that also sums a per-round integer
// contribution (the sent counts) and supports cooperative abort.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	k       int
	waiting int
	gen     int
	sum     int
	out     int
	aborted bool
}

func newBarrier(k int) *barrier {
	b := &barrier{k: k}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// syncCtx blocks until all k parties arrive, returning the sum of their
// contributions; ok is false if the barrier was aborted. When ctx is
// cancelled or its deadline passes while the party is waiting, it withdraws
// its contribution and returns the context's error — without waking or
// dooming the peers (the caller decides whether to abort the whole barrier).
func (b *barrier) syncCtx(ctx context.Context, contribution int) (sum int, ok bool, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return 0, false, err
	}
	if b.aborted {
		return 0, false, nil
	}
	gen := b.gen
	b.sum += contribution
	b.waiting++
	// >= rather than ==: remove() may shrink k below the number already
	// waiting between this party's arrival and the release.
	if b.waiting >= b.k {
		b.out = b.sum
		b.sum = 0
		b.waiting = 0
		b.gen++
		b.cond.Broadcast()
		return b.out, !b.aborted, nil
	}
	// Wake the cond wait when ctx fires; Broadcast under the lock so the
	// wakeup cannot race with the wait re-check.
	stop := context.AfterFunc(ctx, func() {
		b.mu.Lock()
		b.cond.Broadcast()
		b.mu.Unlock()
	})
	defer stop()
	for gen == b.gen && !b.aborted && ctx.Err() == nil {
		b.cond.Wait()
	}
	if b.aborted {
		return 0, false, nil
	}
	if gen == b.gen {
		// Left early on ctx: withdraw so a late peer cannot complete the
		// generation with this party's stale contribution.
		b.waiting--
		b.sum -= contribution
		return 0, false, ctx.Err()
	}
	return b.out, true, nil
}

// remove shrinks the barrier by one party — a worker died and will never
// arrive again. If the survivors are all already waiting, the generation
// releases immediately. deposit is added to the in-progress sum: the death
// path deposits a sentinel 1 so the death round cannot read as globally
// quiescent before the dead worker's partition has been adopted.
func (b *barrier) remove(deposit int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.k--
	b.sum += deposit
	if b.waiting >= b.k && b.waiting > 0 {
		b.out = b.sum
		b.sum = 0
		b.waiting = 0
		b.gen++
		b.cond.Broadcast()
	}
}

// abort releases all waiters with ok=false; subsequent syncs fail fast.
func (b *barrier) abort() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.aborted = true
	b.cond.Broadcast()
}
