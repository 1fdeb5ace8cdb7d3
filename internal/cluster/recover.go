package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"time"

	"powl/internal/ntriples"
	"powl/internal/obs"
	"powl/internal/rdf"
	"powl/internal/rules"
	"powl/internal/transport"
)

// This file is the recovery layer, one implementation for every transport
// and both deployments. Workers checkpoint their per-round deltas into a
// pluggable CheckpointStore; a failure detector watches barrier progress
// (in-process: the coordinator below; across processes: fscluster's
// supervisor over the done-markers); and when a worker dies, the
// lowest-numbered live worker adopts its partition — base tuples,
// checkpointed deltas, inbox, rules — and re-derives. A restarted worker rejoins through the same replay.
// Forward inference is deterministic and monotone, so the reconstructed
// state re-converges to the same closure as the serial fixpoint; receivers
// deduplicate re-routed triples through Graph.Add.

// CheckpointStore persists per-worker deltas, and the derivation lineage
// of their triples, so a dead worker's state can be replayed by its
// adopter. Implementations must be safe for concurrent use by all workers
// of a run.
type CheckpointStore interface {
	// Save appends one delta for the worker — the triples that entered its
	// graph during one phase of the given round.
	Save(worker, round int, delta []rdf.Triple) error
	// Load returns everything ever saved for the worker, any order.
	Load(worker int) ([]rdf.Triple, error)
	// SaveLineage appends the lineage records of one delta. Records are
	// self-contained (rdf.Lineage carries premise triples by value) and
	// matched to replayed triples by value.
	SaveLineage(worker, round int, lins []rdf.Lineage) error
	// LoadLineage returns every lineage record saved for the worker, any
	// order.
	LoadLineage(worker int) ([]rdf.Lineage, error)
}

// MemCheckpoints is the in-process CheckpointStore — survives worker
// (goroutine) death, not process death. The default when RecoveryConfig
// does not supply a store.
type MemCheckpoints struct {
	mu     sync.Mutex
	deltas map[int][]rdf.Triple
	lins   map[int][]rdf.Lineage
}

// NewMemCheckpoints returns an empty in-memory store.
func NewMemCheckpoints() *MemCheckpoints {
	return &MemCheckpoints{deltas: map[int][]rdf.Triple{}}
}

// Save implements CheckpointStore.
func (s *MemCheckpoints) Save(worker, round int, delta []rdf.Triple) error {
	if len(delta) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.deltas[worker] = append(s.deltas[worker], delta...)
	return nil
}

// Load implements CheckpointStore.
func (s *MemCheckpoints) Load(worker int) ([]rdf.Triple, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]rdf.Triple, len(s.deltas[worker]))
	copy(out, s.deltas[worker])
	return out, nil
}

// SaveLineage implements CheckpointStore.
func (s *MemCheckpoints) SaveLineage(worker, round int, lins []rdf.Lineage) error {
	if len(lins) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lins == nil {
		s.lins = map[int][]rdf.Lineage{}
	}
	s.lins[worker] = append(s.lins[worker], lins...)
	return nil
}

// LoadLineage implements CheckpointStore.
func (s *MemCheckpoints) LoadLineage(worker int) ([]rdf.Lineage, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]rdf.Lineage, len(s.lins[worker]))
	copy(out, s.lins[worker])
	return out, nil
}

// DirCheckpoints is the directory-backed CheckpointStore: each delta is one
// atomically-renamed N-Triples file, so checkpoints survive process death
// and can be inspected with any RDF tooling. File names carry worker,
// round and a store-wide sequence number.
type DirCheckpoints struct {
	dir  string
	dict *rdf.Dict

	mu  sync.Mutex
	seq int
}

// NewDirCheckpoints returns a store writing under dir (created if needed),
// interning through dict. A store reopened over a directory in use (a
// restarted worker) numbers its files past every existing one, so it never
// renames over an earlier incarnation's deltas.
func NewDirCheckpoints(dir string, dict *rdf.Dict) (*DirCheckpoints, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cluster: checkpoint dir: %w", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("cluster: checkpoint dir: %w", err)
	}
	return &DirCheckpoints{dir: dir, dict: dict, seq: len(ents)}, nil
}

// Save implements CheckpointStore.
func (s *DirCheckpoints) Save(worker, round int, delta []rdf.Triple) error {
	if len(delta) == 0 {
		return nil
	}
	return s.write("ckpt", worker, round, ".nt", func(w io.Writer) error {
		nw := ntriples.NewWriter(w, s.dict)
		if err := nw.WriteAll(delta); err != nil {
			return err
		}
		return nw.Flush()
	})
}

// SaveLineage implements CheckpointStore: one JSONL sidecar per
// delta (ntriples lineage codec).
func (s *DirCheckpoints) SaveLineage(worker, round int, lins []rdf.Lineage) error {
	if len(lins) == 0 {
		return nil
	}
	return s.write("lin", worker, round, ".jsonl", func(w io.Writer) error {
		return ntriples.WriteLineage(w, s.dict, lins)
	})
}

// write serializes one file to a temp name and renames it into place — a
// crash mid-write leaves a .tmp file the loaders ignore, never a torn delta.
func (s *DirCheckpoints) write(kind string, worker, round int, ext string, enc func(io.Writer) error) error {
	s.mu.Lock()
	s.seq++
	name := fmt.Sprintf("%s_w%02d_r%03d_s%04d%s", kind, worker, round, s.seq, ext)
	s.mu.Unlock()
	var buf bytes.Buffer
	if err := enc(&buf); err != nil {
		return err
	}
	tmp := filepath.Join(s.dir, name+".tmp")
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(s.dir, name))
}

// Load implements CheckpointStore. Like the in-memory store it concatenates
// the deltas as saved; adopters deduplicate through their graph's Add.
func (s *DirCheckpoints) Load(worker int) ([]rdf.Triple, error) {
	var out []rdf.Triple
	err := s.read("ckpt", worker, ".nt", func(r io.Reader) error {
		ts, err := ntriples.ReadTriples(r, s.dict)
		out = append(out, ts...)
		return err
	})
	return out, err
}

// LoadLineage implements CheckpointStore.
func (s *DirCheckpoints) LoadLineage(worker int) ([]rdf.Lineage, error) {
	var out []rdf.Lineage
	err := s.read("lin", worker, ".jsonl", func(r io.Reader) error {
		ls, err := ntriples.ReadLineage(r, s.dict)
		out = append(out, ls...)
		return err
	})
	return out, err
}

// read decodes every file of one kind saved for the worker, in name order.
func (s *DirCheckpoints) read(kind string, worker int, ext string, dec func(io.Reader) error) error {
	files, err := filepath.Glob(filepath.Join(s.dir, fmt.Sprintf("%s_w%02d_r*%s", kind, worker, ext)))
	if err != nil {
		return err
	}
	sort.Strings(files)
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			return err
		}
		derr := dec(fh)
		fh.Close()
		if derr != nil {
			return fmt.Errorf("cluster: checkpoint %s: %w", filepath.Base(f), derr)
		}
	}
	return nil
}

// RecoveryConfig arms transport-generic worker recovery on a Config.
type RecoveryConfig struct {
	// Store persists per-worker per-round deltas; nil means a fresh
	// in-memory store (sufficient for goroutine death; use DirCheckpoints
	// to survive process death).
	Store CheckpointStore
	// RoundDeadline is how long a worker may trail the barrier frontier
	// before the detector declares it dead. It must comfortably exceed the
	// slowest single round. 0 means 2s.
	RoundDeadline time.Duration
}

func (rc RecoveryConfig) withDefaults() RecoveryConfig {
	if rc.Store == nil {
		rc.Store = NewMemCheckpoints()
	}
	if rc.RoundDeadline <= 0 {
		rc.RoundDeadline = 2 * time.Second
	}
	return rc
}

// errWorkerDead is the internal sentinel a worker returns when it steps
// aside — it crashed (injected) or was declared dead and its partition
// reassigned. The run continues without it; RunContext filters the
// sentinel out of the error set.
var errWorkerDead = errors.New("cluster: worker stepped aside (dead)")

// coordinator is the shared recovery state of one run: membership, barrier
// progress, adoption assignments. It resizes the barrier on every death and,
// in Concurrent mode, backs the failure detector.
type coordinator struct {
	store   CheckpointStore
	rc      RecoveryConfig
	bar     *barrier
	obs     *obs.Run
	assigns []Assignment

	mu         sync.Mutex
	live       []bool
	nLive      int
	cancels    []context.CancelFunc
	arrived    []int // last barrier round each worker reached
	frontier   int   // max over live workers of arrived[i]
	frontierAt time.Time
	pending    map[int][]int // adopter -> victims awaiting absorption
	owned      map[int][]int // worker -> partitions it absorbed (transitive)
	recovered  map[int]int   // victim -> final adopter
	err        error
}

//powl:ignore wallclock the failure detector compares real arrival times against real deadlines by design — detection latency is an operational property, not run output.
func newCoordinator(k int, rc RecoveryConfig, bar *barrier, o *obs.Run, assigns []Assignment) *coordinator {
	c := &coordinator{
		store: rc.Store, rc: rc, bar: bar, obs: o, assigns: assigns,
		live:       make([]bool, k),
		nLive:      k,
		cancels:    make([]context.CancelFunc, k),
		arrived:    make([]int, k),
		frontier:   -1,
		frontierAt: time.Now(),
		pending:    map[int][]int{},
		owned:      map[int][]int{},
		recovered:  map[int]int{},
	}
	for i := range c.live {
		c.live[i] = true
		c.arrived[i] = -1
	}
	return c
}

// isDead reports whether the worker has been declared dead. Nil-safe: with
// no coordinator nobody is ever dead.
func (c *coordinator) isDead(id int) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return !c.live[id]
}

// atBarrier records that a worker reached the round's barrier — the
// progress signal the failure detector watches. Nil-safe.
//
//powl:ignore wallclock frontier arrival times exist only to feed the real-time failure detector.
func (c *coordinator) atBarrier(id, round int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if round > c.arrived[id] {
		c.arrived[id] = round
	}
	if round > c.frontier {
		c.frontier = round
		c.frontierAt = time.Now()
	}
}

// workerDied declares a worker dead (self-reported crash or detector
// verdict) and reassigns everything it was responsible for.
func (c *coordinator) workerDied(victim, round int, cause string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.declareDeadLocked(victim, round, cause)
}

func (c *coordinator) declareDeadLocked(victim, round int, cause string) {
	if !c.live[victim] {
		return
	}
	c.live[victim] = false
	c.nLive--
	if c.nLive == 0 {
		if c.err == nil {
			c.err = fmt.Errorf("cluster: unrecoverable: all workers dead (last: worker %d, %s, round %d)",
				victim, cause, round)
		}
		c.bar.abort()
		return
	}
	adopter := -1
	for i, l := range c.live {
		if l {
			adopter = i
			break
		}
	}
	// Everything the victim was responsible for moves to the adopter: its
	// own partition, the partitions it had already absorbed, and any deaths
	// assigned to it that it never got to absorb.
	moved := append([]int{victim}, c.owned[victim]...)
	moved = append(moved, c.pending[victim]...)
	delete(c.pending, victim)
	delete(c.owned, victim)
	have := map[int]bool{}
	for _, v := range c.pending[adopter] {
		have[v] = true
	}
	for _, v := range moved {
		if !have[v] {
			have[v] = true
			c.pending[adopter] = append(c.pending[adopter], v)
		}
		c.recovered[v] = adopter
	}
	if cancel := c.cancels[victim]; cancel != nil {
		cancel()
	}
	// Shrink the barrier so the survivors' generation can complete, and
	// deposit a sentinel "sent" so the death round cannot read as globally
	// quiescent: the adopter needs at least one more round to absorb the
	// victim's state.
	c.bar.remove(1)
	c.obs.Emit(obs.Event{Type: obs.EvDeath, TS: c.obs.Now(), Worker: victim,
		Round: round, Name: cause, N: int64(adopter)})
}

// takePending claims (and records as owned) the victims assigned to a
// worker. Nil-safe.
func (c *coordinator) takePending(id int) []int {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	victims := c.pending[id]
	if len(victims) == 0 {
		return nil
	}
	delete(c.pending, id)
	c.owned[id] = append(c.owned[id], victims...)
	return victims
}

// recoveredMap snapshots victim -> adopter for the Result.
func (c *coordinator) recoveredMap() map[int]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[int]int, len(c.recovered))
	for v, a := range c.recovered {
		out[v] = a
	}
	return out
}

// runErr returns the coordinator's unrecoverable-run error, if any.
func (c *coordinator) runErr() error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// detect is the failure-detector loop (Concurrent mode): every tenth of
// RoundDeadline (at most 20ms, so 20ms at the 2s default) it declares dead
// any live worker that trails the barrier frontier once the frontier has
// been stale past RoundDeadline (the survivors are stuck waiting on it). A false positive is safe: the declared worker steps aside
// at its next coordination point and its partition is re-derived by the
// adopter.
//
//powl:ignore wallclock liveness deadlines are real time by definition; nothing here is stamped into run output.
func (c *coordinator) detect(ctx context.Context) {
	ticker := time.NewTicker(max(time.Microsecond, min(20*time.Millisecond, c.rc.RoundDeadline/10)))
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		c.mu.Lock()
		if c.frontier >= 0 && time.Since(c.frontierAt) > c.rc.RoundDeadline {
			for i, l := range c.live {
				if l && c.arrived[i] < c.frontier {
					c.declareDeadLocked(i, c.frontier, "timeout")
				}
			}
		}
		c.mu.Unlock()
	}
}

// Membership is what one worker's round loop needs from the rest of its
// run: the round barrier with its sent-count reduction, and the view of who
// is dead and whose partitions this worker must adopt. An in-process run
// backs it with one shared barrier and recovery coordinator; a node process
// of the shared-file-system deployment (internal/fscluster) backs it with
// done-marker and dead files. A worker calls its Membership from one
// goroutine.
type Membership interface {
	// Sync posts the worker's sent count for the round, waits until every
	// live worker has posted, and returns their sum. ErrPeerAbort means
	// another worker failed the run.
	Sync(ctx context.Context, id, round, sent int) (int, error)
	// Dead reports whether worker id has been declared dead.
	Dead(id int) bool
	// Pending claims the partitions of dead workers assigned to id.
	Pending(id int) []int
	// Died reports id's own fail-stop at round. False means nobody in this
	// process will adopt the partition, so the worker fails the run instead.
	Died(id, round int, cause string) bool
	// Abort fails the run for every worker still waiting at the barrier.
	Abort()
	// Assignment returns worker v's base tuples and rules.
	Assignment(v int) (Assignment, error)
}

// local is the in-process Membership: the run's barrier and its recovery
// coordinator (nil without recovery).
type local struct {
	bar   *barrier
	coord *coordinator
}

func (l local) Sync(ctx context.Context, id, round, sent int) (int, error) {
	l.coord.atBarrier(id, round)
	total, ok, err := l.bar.syncCtx(ctx, sent)
	if err == nil && !ok {
		err = ErrPeerAbort
	}
	return total, err
}

func (l local) Dead(id int) bool     { return l.coord.isDead(id) }
func (l local) Pending(id int) []int { return l.coord.takePending(id) }

func (l local) Died(id, round int, cause string) bool {
	if l.coord == nil {
		return false
	}
	l.coord.workerDied(id, round, cause)
	return true
}

func (l local) Abort() { l.bar.abort() }

func (l local) Assignment(v int) (Assignment, error) { return l.coord.assigns[v], nil }

// adoptPending absorbs the dead peers assigned to this worker, then moves
// the shipping watermark past everything absorbed: base and inbox tuples are
// already routed, and checkpointed ones wait in reship.
func (w *worker) adoptPending(ctx context.Context, cfg Config, round int) error {
	victims := w.m.Pending(w.id)
	for _, v := range victims {
		absorbed, err := w.absorb(ctx, cfg, v, round)
		if err != nil {
			return fmt.Errorf("cluster: worker %d adopt %d: %w", w.id, v, err)
		}
		w.adopted = append(w.adopted, v)
		cfg.Obs.Emit(obs.Event{Type: obs.EvAdopt, TS: cfg.Obs.Now(), Worker: w.id,
			Round: round, N: int64(v), N2: int64(absorbed)})
	}
	if len(victims) > 0 {
		w.shipped = w.graph.Len()
	}
	return nil
}

// absorb merges partition v's recoverable state into this worker — how an
// adopter takes over a dead peer and how a restarted worker rejoins. The new
// tuples seed the next incremental materialization; checkpointed ones are
// also queued in reship, since v may have died before its sends completed
// (receivers deduplicate). v's rules join the worker's (rule-partitioned
// victims may carry rules the adopter lacks). It returns the new tuple count.
func (w *worker) absorb(ctx context.Context, cfg Config, v, round int) (int, error) {
	a, err := w.m.Assignment(v)
	if err != nil {
		return 0, err
	}
	if w.reship == nil {
		w.reship = map[rdf.Triple]struct{}{}
	}
	absorbed := 0
	err = Replay(ctx, w.graph, a.Tuples(), w.store, cfg.Transport, v, round, func(t rdf.Triple, routed, added bool) {
		if routed {
			delete(w.reship, t)
		}
		if added {
			w.received = append(w.received, t)
			absorbed++
			if !routed {
				w.reship[t] = struct{}{}
			}
		}
	})
	for _, r := range a.Rules {
		if !containsRule(w.rules, r) {
			w.rules = append(w.rules, r)
			// r has fired only over v's graph, and a tuple both graphs hold
			// is no seed: the next reason phase closes the whole graph.
			w.materialized = false
		}
	}
	return absorbed, err
}

// Replay merges worker v's recoverable state into g: its base tuples, every
// delta store checkpointed for it, and its inbox on tr for rounds 0..round
// (transports still hold undelivered rounds, and File re-serves delivered
// ones — harmless, Add deduplicates). Derivation records come along when g
// records provenance and store or tr carry them. visit, when non-nil, sees
// every replayed tuple with whether it is routed knowledge (base, inbox)
// rather than a checkpointed derivation, and whether g gained it. Adoption,
// rejoin and a master rebuilding a dead node's closure all replay through
// it.
func Replay(ctx context.Context, g *rdf.Graph, base []rdf.Triple, store CheckpointStore, tr transport.Transport, v, round int, visit func(t rdf.Triple, routed, added bool)) error {
	prov := g.Prov() != nil
	lins := map[rdf.Triple]rdf.Lineage{}
	keep := func(ls []rdf.Lineage) {
		for _, l := range ls {
			if _, ok := lins[l.T]; !ok { // first derivation wins, like Add
				lins[l.T] = l
			}
		}
	}
	add := func(ts []rdf.Triple, routed bool) {
		for _, t := range ts {
			var added bool
			if l, ok := lins[t]; ok {
				added = g.AddWithLineage(t, l)
			} else {
				added = g.Add(t)
			}
			if visit != nil {
				visit(t, routed, added)
			}
		}
	}
	add(base, true)
	if store != nil {
		if prov {
			l, err := store.LoadLineage(v)
			if err != nil {
				return fmt.Errorf("checkpoint lineage: %w", err)
			}
			keep(l)
		}
		ck, err := store.Load(v)
		if err != nil {
			return fmt.Errorf("checkpoints: %w", err)
		}
		add(ck, false)
	}
	lc, _ := tr.(transport.LineageCarrier)
	for r := 0; r <= round; r++ {
		in, err := tr.Recv(ctx, r, v)
		if err != nil {
			return fmt.Errorf("inbox round %d: %w", r, err)
		}
		if lc != nil && prov {
			ls, err := lc.RecvLineage(ctx, r, v)
			if err != nil {
				return fmt.Errorf("inbox lineage round %d: %w", r, err)
			}
			keep(ls)
		}
		add(in, true)
	}
	return nil
}

// containsRule reports whether rs already holds r (rule-partitioned victims
// may carry rules the adopter lacks; data partitioning shares one set).
func containsRule(rs []rules.Rule, r rules.Rule) bool {
	for _, x := range rs {
		if reflect.DeepEqual(x, r) {
			return true
		}
	}
	return false
}

// stepAsideOr converts an error into the step-aside sentinel when this
// worker has been declared dead — its context was cancelled and its
// partition reassigned, so the failure is expected and the run continues
// without it. Any other failure aborts the barrier and surfaces.
func (w *worker) stepAsideOr(err error) error {
	if w.m.Dead(w.id) {
		return errWorkerDead
	}
	w.m.Abort()
	return err
}
