package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
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

// This file is the transport-generic recovery layer: the fscluster-only
// design of PR 1 (checkpoints + supervise + adopt), generalized so it works
// identically over Mem, File and TCP. Workers checkpoint their per-round
// deltas into a pluggable CheckpointStore; a failure detector watches
// barrier progress (and transport Health when the transport reports it);
// and when a worker dies, the lowest-numbered live worker adopts its
// partition — base tuples, checkpointed deltas, undelivered inbox, rules —
// and re-derives. Forward inference is deterministic and monotone, so the
// reconstructed state re-converges to the same closure as the serial
// fixpoint; receivers deduplicate re-routed triples through Graph.Add.

// CheckpointStore persists per-worker deltas so a dead worker's state can
// be replayed by its adopter. Implementations must be safe for concurrent
// use by all workers of a run.
type CheckpointStore interface {
	// Save appends one delta for the worker — the triples that entered its
	// graph during one phase of the given round.
	Save(worker, round int, delta []rdf.Triple) error
	// Load returns everything ever saved for the worker, any order.
	Load(worker int) ([]rdf.Triple, error)
}

// LineageCheckpointStore is implemented by checkpoint stores that persist
// derivation lineage alongside the triple deltas. Lineage records are
// self-contained (rdf.Lineage carries premise triples by value) and matched
// to replayed triples by value, so a store may return them in any order.
// Stores without the interface degrade recovery to lineage-free replay;
// the reconstructed closure is unaffected.
type LineageCheckpointStore interface {
	SaveLineage(worker, round int, lins []rdf.Lineage) error
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

// SaveLineage implements LineageCheckpointStore.
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

// LoadLineage implements LineageCheckpointStore.
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
// interning through dict.
func NewDirCheckpoints(dir string, dict *rdf.Dict) (*DirCheckpoints, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cluster: checkpoint dir: %w", err)
	}
	return &DirCheckpoints{dir: dir, dict: dict}, nil
}

// Save implements CheckpointStore: serialize, write to a temp name, rename —
// a crash mid-write leaves a .tmp file Load ignores, never a torn delta.
func (s *DirCheckpoints) Save(worker, round int, delta []rdf.Triple) error {
	if len(delta) == 0 {
		return nil
	}
	s.mu.Lock()
	s.seq++
	name := fmt.Sprintf("ckpt_w%02d_r%03d_s%04d.nt", worker, round, s.seq)
	s.mu.Unlock()
	var buf bytes.Buffer
	w := ntriples.NewWriter(&buf, s.dict)
	if err := w.WriteAll(delta); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	tmp := filepath.Join(s.dir, name+".tmp")
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(s.dir, name))
}

// SaveLineage implements LineageCheckpointStore: one JSONL sidecar per
// delta (ntriples lineage codec), atomically renamed like the triple
// checkpoints.
func (s *DirCheckpoints) SaveLineage(worker, round int, lins []rdf.Lineage) error {
	if len(lins) == 0 {
		return nil
	}
	s.mu.Lock()
	s.seq++
	name := fmt.Sprintf("lin_w%02d_r%03d_s%04d.jsonl", worker, round, s.seq)
	s.mu.Unlock()
	var buf bytes.Buffer
	if err := ntriples.WriteLineage(&buf, s.dict, lins); err != nil {
		return err
	}
	tmp := filepath.Join(s.dir, name+".tmp")
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(s.dir, name))
}

// LoadLineage implements LineageCheckpointStore.
func (s *DirCheckpoints) LoadLineage(worker int) ([]rdf.Lineage, error) {
	files, err := filepath.Glob(filepath.Join(s.dir, fmt.Sprintf("lin_w%02d_r*.jsonl", worker)))
	if err != nil {
		return nil, err
	}
	sort.Strings(files)
	var out []rdf.Lineage
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			return nil, err
		}
		lins, rerr := ntriples.ReadLineage(fh, s.dict)
		fh.Close()
		if rerr != nil {
			return nil, fmt.Errorf("cluster: lineage %s: %w", filepath.Base(f), rerr)
		}
		out = append(out, lins...)
	}
	return out, nil
}

// Load implements CheckpointStore. Like the in-memory store it concatenates
// the deltas as saved; adopters deduplicate through their graph's Add.
func (s *DirCheckpoints) Load(worker int) ([]rdf.Triple, error) {
	files, err := filepath.Glob(filepath.Join(s.dir, fmt.Sprintf("ckpt_w%02d_r*.nt", worker)))
	if err != nil {
		return nil, err
	}
	sort.Strings(files)
	var out []rdf.Triple
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			return nil, err
		}
		ts, rerr := ntriples.ReadTriples(fh, s.dict)
		fh.Close()
		if rerr != nil {
			return nil, fmt.Errorf("cluster: checkpoint %s: %w", filepath.Base(f), rerr)
		}
		out = append(out, ts...)
	}
	return out, nil
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
	// Poll is the detector's check interval; 0 means 20ms.
	Poll time.Duration
}

func (rc RecoveryConfig) withDefaults() RecoveryConfig {
	if rc.Store == nil {
		rc.Store = NewMemCheckpoints()
	}
	if rc.RoundDeadline <= 0 {
		rc.RoundDeadline = 2 * time.Second
	}
	if rc.Poll <= 0 {
		rc.Poll = 20 * time.Millisecond
	}
	return rc
}

// errWorkerDead is the internal sentinel a worker returns when it steps
// aside — it crashed (injected) or was declared dead and its partition
// reassigned. The run continues without it; RunContext filters the
// sentinel out of the error set.
var errWorkerDead = errors.New("cluster: worker stepped aside (dead)")

// coordinator is the shared recovery state of one run: membership, barrier
// progress, adoption assignments. In Concurrent mode it backs the failure
// detector and resizes the barrier; in Simulated mode (bar == nil) deaths
// are replayed deterministically at round tops and the round loop simply
// skips dead workers.
type coordinator struct {
	store   CheckpointStore
	rc      RecoveryConfig
	bar     *barrier // nil in Simulated mode
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
		if c.bar != nil {
			c.bar.abort()
		}
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
	if c.bar != nil {
		// Shrink the barrier so the survivors' generation can complete, and
		// deposit a sentinel "sent" so the death round cannot read as
		// globally quiescent: the adopter needs at least one more round to
		// absorb the victim's state.
		c.bar.remove(1)
	}
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

// detect is the failure-detector loop (Concurrent mode): every Poll it
// declares dead any live worker that trails the barrier frontier while
// either the frontier has been stale past RoundDeadline (the survivors are
// stuck waiting on it) or the transport's Health view — when the transport
// reports one — has had no proof of life from it past RoundDeadline. A
// false positive is safe: the declared worker steps aside at its next
// coordination point and its partition is re-derived by the adopter.
//
//powl:ignore wallclock liveness deadlines are real time by definition; nothing here is stamped into run output.
func (c *coordinator) detect(ctx context.Context, tr transport.Transport) {
	hr, _ := tr.(transport.HealthReporter)
	ticker := time.NewTicker(c.rc.Poll)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		var health map[int]time.Time
		if hr != nil {
			health = hr.Health()
		}
		now := time.Now()
		c.mu.Lock()
		if c.frontier >= 0 {
			frontierStale := now.Sub(c.frontierAt) > c.rc.RoundDeadline
			for i, l := range c.live {
				if !l || c.arrived[i] >= c.frontier {
					continue
				}
				healthStale := false
				if t, ok := health[i]; ok {
					healthStale = now.Sub(t) > c.rc.RoundDeadline
				}
				if frontierStale || healthStale {
					c.declareDeadLocked(i, c.frontier, "timeout")
				}
			}
		}
		c.mu.Unlock()
	}
}

// adoptPending absorbs any dead peers assigned to this worker: each
// victim's base partition, every checkpointed delta it saved before dying,
// its undelivered inbox, and its rules are merged into this worker's state,
// and the absorbed tuples seed the next incremental materialization.
// Already-routed knowledge (base, delivered inbox) is swallowed by advancing
// the shipping watermark past the adoption; checkpointed triples are queued
// in `reship` so the next send phase re-routes them — the victim may have
// died before its last sends completed, and receivers deduplicate through
// Graph.Add.
func (w *worker) adoptPending(ctx context.Context, cfg Config, round int) error {
	victims := w.coord.takePending(w.id)
	if len(victims) > 0 && w.reship == nil {
		w.reship = map[rdf.Triple]struct{}{}
	}
	// Lineage-capable stores/transports let the adopter keep the victim's
	// derivation records; without them the adoption degrades to lineage-free
	// replay and the triples read as asserted in the adopter's log.
	var linStore LineageCheckpointStore
	var linCarrier transport.LineageCarrier
	if w.graph.Prov() != nil && len(victims) > 0 {
		linStore, _ = w.coord.store.(LineageCheckpointStore)
		linCarrier, _ = cfg.Transport.(transport.LineageCarrier)
	}
	addAdopted := func(t rdf.Triple, vlin map[rdf.Triple]rdf.Lineage) bool {
		if lin, ok := vlin[t]; ok {
			return w.graph.AddWithLineage(t, lin)
		}
		return w.graph.Add(t)
	}
	for _, v := range victims {
		absorbed := 0
		for _, t := range w.coord.assigns[v].Base {
			// Base tuples were placed by the partitioner; never re-ship.
			delete(w.reship, t)
			if w.graph.Add(t) {
				w.received = append(w.received, t)
				absorbed++
			}
		}
		vlin := map[rdf.Triple]rdf.Lineage{}
		if linStore != nil {
			lins, err := linStore.LoadLineage(v)
			if err != nil {
				return fmt.Errorf("cluster: worker %d adopt %d lineage: %w", w.id, v, err)
			}
			for _, l := range lins {
				if _, ok := vlin[l.T]; !ok { // first derivation wins, like Add
					vlin[l.T] = l
				}
			}
		}
		ck, err := w.coord.store.Load(v)
		if err != nil {
			return fmt.Errorf("cluster: worker %d adopt %d: %w", w.id, v, err)
		}
		for _, t := range ck {
			if addAdopted(t, vlin) {
				w.received = append(w.received, t)
				absorbed++
				w.reship[t] = struct{}{}
			}
		}
		// Drain the victim's inbox from round 0: transports still hold the
		// undelivered rounds (and File re-serves delivered ones — harmless,
		// Add deduplicates). These were routed by live senders to every
		// destination, so they are global knowledge: never re-ship them, even
		// if a previous victim's checkpoint queued them.
		for r := 0; r <= round; r++ {
			in, err := cfg.Transport.Recv(ctx, r, v)
			if err != nil {
				return fmt.Errorf("cluster: worker %d adopt %d inbox round %d: %w", w.id, v, r, err)
			}
			inLin := vlin
			if linCarrier != nil {
				ls, lerr := linCarrier.RecvLineage(ctx, r, v)
				if lerr != nil {
					return fmt.Errorf("cluster: worker %d adopt %d lineage round %d: %w", w.id, v, r, lerr)
				}
				if len(ls) > 0 {
					inLin = make(map[rdf.Triple]rdf.Lineage, len(ls)+len(vlin))
					for t, l := range vlin {
						inLin[t] = l
					}
					for _, l := range ls {
						inLin[l.T] = l
					}
				}
			}
			for _, t := range in {
				delete(w.reship, t)
				if addAdopted(t, inLin) {
					w.received = append(w.received, t)
					absorbed++
				}
			}
		}
		for _, r := range w.coord.assigns[v].Rules {
			if !containsRule(w.rules, r) {
				w.rules = append(w.rules, r)
			}
		}
		w.adopted = append(w.adopted, v)
		cfg.Obs.Emit(obs.Event{Type: obs.EvAdopt, TS: cfg.Obs.Now(), Worker: w.id,
			Round: round, N: int64(v), N2: int64(absorbed)})
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
func (w *worker) stepAsideOr(bar *barrier, err error) error {
	if w.coord.isDead(w.id) {
		return errWorkerDead
	}
	bar.abort()
	return err
}
