// Package fscluster implements the paper's actual deployment shape (§V): a
// cluster of independent OS processes synchronizing through a shared file
// system. The master lays out a work directory — one base-tuple file per
// partition, the compiled rule file, and the resource ownership table — and
// each node process runs one worker of internal/cluster's round loop
// against it: messages are transport.File files, checkpoints are
// cluster.DirCheckpoints files, and the round barrier is one done-marker
// file per node and round carrying the node's sent count. Global quiescence
// (zero tuples sent by anyone in a round) terminates the run.
//
// cmd/owlcluster (master) and cmd/owlnode (worker) are thin wrappers; the
// package itself is process-agnostic, so the integration tests run k nodes
// as goroutines against one temp dir — the protocol on disk is identical.
package fscluster

import (
	"bufio"
	"cmp"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"powl/internal/cluster"
	"powl/internal/core"
	"powl/internal/faultinject"
	"powl/internal/ntriples"
	"powl/internal/obs"
	"powl/internal/rdf"
	"powl/internal/reason"
	"powl/internal/rules"
	"powl/internal/transport"
)

// Layout names the files of a work directory. Prepare writes the run's
// inputs at the top level; everything a run writes lives under run/, which
// Prepare clears, so a reused directory never replays an earlier run.
type Layout struct {
	Dir string
}

// PartFile is the base-tuple file of node id.
func (l Layout) PartFile(id int) string { return filepath.Join(l.Dir, fmt.Sprintf("part_%02d.nt", id)) }

// RulesFile holds the compiled instance rules.
func (l Layout) RulesFile() string { return filepath.Join(l.Dir, "rules.rules") }

// OwnerFile holds the resource ownership table (term TAB partition).
func (l Layout) OwnerFile() string { return filepath.Join(l.Dir, "owner.tsv") }

// MetaFile records the cluster size for the nodes.
func (l Layout) MetaFile() string { return filepath.Join(l.Dir, "cluster.meta") }

// run names a file of the run state.
func (l Layout) run(format string, args ...any) string {
	return filepath.Join(l.Dir, "run", fmt.Sprintf(format, args...))
}

// MsgDir holds the transport.File message files and their lineage sidecars.
func (l Layout) MsgDir() string { return l.run("msg") }

// CkptDir holds the nodes' cluster.DirCheckpoints files.
func (l Layout) CkptDir() string { return l.run("ckpt") }

// MarkerFile is node i's end-of-round marker; its content is the number of
// tuples the node sent this round. Markers are posted with exclusive create
// (postMarker), so each has one value for every reader.
func (l Layout) MarkerFile(round, id int) string { return l.run("done_r%03d_n%02d", round, id) }

// ClosureFile is node i's final output.
func (l Layout) ClosureFile(id int) string { return l.run("closure_%02d.nt", id) }

// JournalFile is node i's telemetry journal fragment, written when the node
// runs with observability on; the master merges the fragments into one
// timeline for trace export and reporting.
func (l Layout) JournalFile(id int) string { return l.run("journal_n%02d.jsonl", id) }

// DeadFile marks node i as failed; its content is the adopter's id. Written
// by the supervisor, honoured by every node's barrier wait.
func (l Layout) DeadFile(id int) string { return l.run("dead_n%02d", id) }

// EpochFile counts node i's starts against this work directory; a value
// above 1 on startup means the node is rejoining a run already in progress.
func (l Layout) EpochFile(id int) string { return l.run("epoch_n%02d", id) }

// Prepare is the master-side step: it writes a data-partitioning plan
// (core.NewPlan) to the work directory — each node's base tuples, the rule
// file and the owner table. A run starts from empty run state, so Prepare
// clears the previous run's markers, epochs, messages, checkpoints and
// closures.
func Prepare(dir string, dict *rdf.Dict, plan *core.Plan) error {
	if plan.Owner == nil {
		return errors.New("fscluster: the nodes route by owner; the plan needs data partitioning")
	}
	l := Layout{Dir: dir}
	if err := os.RemoveAll(l.run("")); err != nil {
		return err
	}
	if err := os.MkdirAll(l.run(""), 0o755); err != nil {
		return err
	}
	k := len(plan.Assignments)
	for i, a := range plan.Assignments {
		if err := writeTriples(l.PartFile(i), dict, a.Tuples()); err != nil {
			return err
		}
	}

	// Rule file, in the parseable Jena-style syntax; every node applies
	// the one rule set.
	var rb strings.Builder
	for _, r := range plan.Assignments[0].Rules {
		rb.WriteString(r.Format(dict))
		rb.WriteByte('\n')
	}
	if err := os.WriteFile(l.RulesFile(), []byte(rb.String()), 0o644); err != nil {
		return err
	}

	// Owner table, in ascending resource-ID order so the file is byte-stable
	// across runs of the same (input, seed).
	var ob strings.Builder
	for id, p := range plan.Owner {
		if p >= 0 {
			ob.WriteString(dict.Term(rdf.ID(id)).String())
			ob.WriteByte('\t')
			ob.WriteString(strconv.Itoa(int(p)))
			ob.WriteByte('\n')
		}
	}
	if err := os.WriteFile(l.OwnerFile(), []byte(ob.String()), 0o644); err != nil {
		return err
	}
	return os.WriteFile(l.MetaFile(), []byte(strconv.Itoa(k)+"\n"), 0o644)
}

// ClusterSize reads k from the work directory.
func ClusterSize(dir string) (int, error) {
	return readInt(Layout{Dir: dir}.MetaFile())
}

// NodeConfig configures one node process.
type NodeConfig struct {
	ID int
	K  int
	// Dir is the shared work directory.
	Dir string
	// Engine defaults to the forward engine.
	Engine reason.Engine
	// Poll is the marker-polling interval; 0 means 20ms.
	Poll time.Duration
	// Timeout bounds the wait for peers per round; 0 means 5 minutes.
	Timeout time.Duration
	// Inject optionally simulates failures: when its CrashRound fires the
	// node exits with ErrCrashed mid-protocol, exactly as a killed process
	// would look to its peers, and its send/recv faults fail the node the
	// same way. Nil means no injection.
	Inject *faultinject.Injector
	// Obs, when non-nil, journals this node's run: phase spans per round,
	// checkpoint sizes, injected faults, deaths, adoptions, and per-rule
	// profiles. Each node process journals on its own clock (ns since its
	// own start); cmd/owlcluster merges the per-node fragments into one
	// timeline.
	Obs *obs.Run
	// Provenance enables derivation recording on this node's graph: the
	// engine records rule + premises per derived tuple, and messages and
	// checkpoints carry lineage sidecars so receivers, adopters and
	// rejoining nodes keep the records. The closure is unaffected.
	Provenance bool
}

// ErrCrashed is returned by a node whose fault injector fired its crash
// trigger; the node stops without writing its round marker.
var ErrCrashed = cluster.ErrCrashed

// NodeResult reports one node's run.
type NodeResult struct {
	Rounds  int
	Derived int
	Sent    int
	// Epoch is this start's 1-based count against the work directory; a
	// value above 1 means the node rejoined a run already in progress.
	Epoch int
	// StartRound is the round the node (re)entered the loop at: 0 on a
	// fresh start, last-completed-round+1 on a rejoin.
	StartRound int
	// Closure is the node's final local graph (also written to disk).
	Closure *rdf.Graph
}

// RunNode executes Algorithm 3's round loop for one node against the shared
// directory, writing its closure file before returning.
func RunNode(cfg NodeConfig) (*NodeResult, error) {
	return RunNodeContext(context.Background(), cfg)
}

// RunNodeContext is RunNode with cancellation: the context is checked each
// round, passed to the engine's fixpoint loop, and honoured by the barrier
// poll, so a cancelled node stops within one round phase.
func RunNodeContext(ctx context.Context, cfg NodeConfig) (*NodeResult, error) {
	if cfg.Engine == nil {
		cfg.Engine = reason.Forward{}
	}
	l := Layout{Dir: cfg.Dir}
	dict := rdf.NewDict()
	ruleSrc, err := os.ReadFile(l.RulesFile())
	if err != nil {
		return nil, err
	}
	rs, err := rules.Parse(string(ruleSrc), dict)
	if err != nil {
		return nil, fmt.Errorf("fscluster: node %d: rules: %w", cfg.ID, err)
	}
	owner, err := readOwnerTable(l.OwnerFile(), dict)
	if err != nil {
		return nil, fmt.Errorf("fscluster: node %d: %w", cfg.ID, err)
	}

	// Epoch bookkeeping: bump the start counter first thing, so a restarted
	// process announces itself before touching any round state. A second
	// start against the same work directory is a rejoin.
	epoch, err := readInt(l.EpochFile(cfg.ID))
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("fscluster: node %d: %w", cfg.ID, err)
	}
	epoch++
	if err := writeAtomic(l.EpochFile(cfg.ID), strconv.Itoa(epoch)); err != nil {
		return nil, err
	}
	start := 0
	if epoch > 1 {
		// A supervisor may already have declared this node dead, in which
		// case an adopter owns the partition now; coming back anyway would
		// put two nodes behind one inbox.
		if adopter, dead := readDeadFile(l, cfg.ID); dead {
			return nil, fmt.Errorf("fscluster: node %d: declared dead (partition adopted by node %d); cannot rejoin", cfg.ID, adopter)
		}
		// Markers are written in order, so the first gap is the round the
		// previous incarnation died in.
		for exists(l.MarkerFile(start, cfg.ID)) {
			start++
		}
		cfg.Obs.Emit(obs.Event{Type: obs.EvRejoin, TS: cfg.Obs.Now(),
			Worker: cfg.ID, Round: start, N: int64(epoch)})
	}

	store, err := cluster.NewDirCheckpoints(l.CkptDir(), dict)
	if err != nil {
		return nil, err
	}
	file, err := transport.NewFile(l.MsgDir(), dict)
	if err != nil {
		return nil, err
	}
	file.Obs = cfg.Obs.Transport()
	var tr transport.Transport = file
	if cfg.Inject != nil {
		tr = &faultinject.Transport{Inner: file, Inj: cfg.Inject}
	}
	inject := make([]*faultinject.Injector, cfg.ID+1)
	inject[cfg.ID] = cfg.Inject
	m := &markers{l: l, k: cfg.K, dict: dict, rules: rs, obs: cfg.Obs,
		poll: cmp.Or(cfg.Poll, 20*time.Millisecond), timeout: cmp.Or(cfg.Timeout, 5*time.Minute)}
	g, tm, err := cluster.RunWorker(ctx, cluster.Config{
		Engine: cfg.Engine, Transport: tr, Router: core.NewOwnerRouter(owner, cfg.K),
		Obs: cfg.Obs, Recovery: &cluster.RecoveryConfig{Store: store}, Inject: inject,
		Provenance: cfg.Provenance,
	}, cfg.ID, start, m)
	if err != nil {
		return nil, fmt.Errorf("fscluster: node %d: %w", cfg.ID, err)
	}
	if err := writeTriples(l.ClosureFile(cfg.ID), dict, g.SortedTriples()); err != nil {
		return nil, err
	}
	return &NodeResult{Rounds: tm.Rounds, Derived: tm.Derived, Sent: tm.Sent,
		Epoch: epoch, StartRound: start, Closure: g}, nil
}

// markers is a node process's cluster.Membership over the work directory:
// the round barrier is one done-marker per node and round holding its sent
// count, and deaths are the supervisor's dead-files, each naming an adopter.
// An adopter keeps posting its dead peers' markers, so the barrier stays k
// wide and the ownership table never changes: the rest of the cluster keeps
// routing to the dead node's inbox, which the adopter drains.
type markers struct {
	l              Layout
	k              int
	poll, timeout  time.Duration
	dict           *rdf.Dict
	rules          []rules.Rule
	obs            *obs.Run
	pending, owned []int
}

// Sync posts this node's marker, and a 0 for every peer it adopted, then
// polls until all k markers of the round exist. A missing peer whose
// dead-files lead to this node is claimed for adoption at the next round's
// top; its marker gets a sentinel 1 so the round cannot read as quiescent
// before the adopter has reasoned over the merged state. A node whose own
// marker its adopter already posted has been declared dead: Sync fails, and
// the round loop steps aside.
func (m *markers) Sync(ctx context.Context, id, round, sent int) (int, error) {
	posted, err := postMarker(m.l.MarkerFile(round, id), strconv.Itoa(sent))
	if err != nil {
		return 0, err
	}
	if !posted {
		return 0, fmt.Errorf("fscluster: node %d: round %d marker already posted by an adopter", id, round)
	}
	// A marker posted first by the peer itself (a false positive still
	// running) stands; the claim stands too, since the dead-file does.
	for _, v := range m.owned {
		if _, err := postMarker(m.l.MarkerFile(round, v), "0"); err != nil {
			return 0, err
		}
	}
	wctx, cancel := context.WithTimeout(ctx, m.timeout)
	defer cancel()
	for {
		total, missing := 0, -1
		for i := 0; i < m.k; i++ {
			v, err := readInt(m.l.MarkerFile(round, i))
			if os.IsNotExist(err) {
				missing = i
				break
			}
			if err != nil {
				return 0, fmt.Errorf("fscluster: bad marker %s: %w", m.l.MarkerFile(round, i), err)
			}
			total += v
		}
		if missing < 0 {
			return total, nil
		}
		if m.l.owner(missing, m.k) == id && !slices.Contains(m.pending, missing) {
			m.pending = append(m.pending, missing)
			m.obs.Emit(obs.Event{Type: obs.EvDeath, TS: m.obs.Now(), Worker: missing,
				Round: round, Name: "timeout", N: int64(id)})
			if _, err := postMarker(m.l.MarkerFile(round, missing), "1"); err != nil {
				return 0, err
			}
			continue
		}
		select {
		case <-wctx.Done():
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			return 0, fmt.Errorf("fscluster: node %d: timed out waiting for round %d markers", id, round)
		case <-time.After(m.poll):
		}
	}
}

// Dead reports whether the supervisor wrote id's dead-file.
func (m *markers) Dead(id int) bool {
	_, dead := readDeadFile(m.l, id)
	return dead
}

// Pending hands the peers claimed in Sync to the round loop; from then on
// this node posts their markers.
func (m *markers) Pending(int) []int {
	p := m.pending
	m.pending = nil
	m.owned = append(m.owned, p...)
	return p
}

// Died reports false: a crashed process announces nothing. Its peers see
// its markers stop, and the supervisor names an adopter.
func (*markers) Died(int, int, string) bool { return false }

// Abort does nothing: a failed node's peers learn of it from its markers.
func (*markers) Abort() {}

// Assignment reads node v's base-tuple file; every node applies the one
// rule file.
func (m *markers) Assignment(v int) (cluster.Assignment, error) {
	base, err := readTriples(m.l.PartFile(v), m.dict)
	return cluster.Assignment{Base: base, Rules: m.rules}, err
}

// MergeClosures unions the k closure files into one graph. A node declared
// dead has no closure file; its contribution is rebuilt by cluster.Replay
// from its base partition, checkpoints and inbox (everything it knew at its
// last completed round — any later derivations were redone by its adopter,
// whose closure file is merged normally).
func MergeClosures(dir string, k int) (*rdf.Dict, *rdf.Graph, error) {
	l := Layout{Dir: dir}
	dict := rdf.NewDict()
	g := rdf.NewGraph()
	for i := 0; i < k; i++ {
		ts, err := readTriples(l.ClosureFile(i), dict)
		if err == nil {
			g.AddAll(ts)
			continue
		}
		if _, dead := readDeadFile(l, i); !dead {
			return nil, nil, err
		}
		base, err := readTriples(l.PartFile(i), dict)
		if err != nil {
			return nil, nil, err
		}
		store, err := cluster.NewDirCheckpoints(l.CkptDir(), dict)
		if err != nil {
			return nil, nil, err
		}
		tr, err := transport.NewFile(l.MsgDir(), dict)
		if err != nil {
			return nil, nil, err
		}
		last := 0 // the last round any node completed
		for anyMarker(l, last+1, k) {
			last++
		}
		if err := cluster.Replay(context.Background(), g, base, store, tr, i, last, nil); err != nil {
			return nil, nil, fmt.Errorf("fscluster: reconstructing dead node %d: %w", i, err)
		}
	}
	return dict, g, nil
}

// readOwnerTable reads the owner table into core.Plan.Owner's layout over
// dict's IDs.
func readOwnerTable(path string, dict *rdf.Dict) ([]int32, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var owner []int32
	for n, line := range strings.Split(string(b), "\n") {
		if line = strings.TrimSpace(line); line == "" {
			continue
		}
		tab := strings.LastIndexByte(line, '\t')
		if tab < 0 {
			return nil, fmt.Errorf("owner table line %d: no tab", n+1)
		}
		term, err := ntriples.ParseTerm(line[:tab])
		p, perr := strconv.Atoi(line[tab+1:])
		if err = errors.Join(err, perr); err != nil {
			return nil, fmt.Errorf("owner table line %d: %w", n+1, err)
		}
		id := dict.Intern(term)
		for int(id) >= len(owner) {
			owner = append(owner, -1)
		}
		owner[id] = int32(p)
	}
	return owner, nil
}

// writeTriples writes ts to path as N-Triples through a temp file, so a
// reader never sees a torn file.
func writeTriples(path string, dict *rdf.Dict, ts []rdf.Triple) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	w := ntriples.NewWriter(f, dict)
	err = w.WriteAll(ts)
	if err == nil {
		err = w.Flush()
	}
	if err := errors.Join(err, f.Close()); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// postMarker publishes a round marker with exclusive create: it writes a
// temp file of its own and links it into place, so a marker, once posted,
// never changes. It reports false, and no error, when the marker was
// already posted.
func postMarker(path, content string) (bool, error) {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return false, err
	}
	defer os.Remove(f.Name())
	_, err = f.WriteString(content)
	if err := errors.Join(err, f.Close()); err != nil {
		return false, err
	}
	err = os.Link(f.Name(), path)
	if errors.Is(err, fs.ErrExist) {
		return false, nil
	}
	return err == nil, err
}

// writeAtomic replaces path's content through a rename: epoch files and
// dead-files, which have one writer each.
func writeAtomic(path, content string) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(content), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func readTriples(path string, dict *rdf.Dict) ([]rdf.Triple, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ntriples.ReadTriples(bufio.NewReader(f), dict)
}
