// Package fscluster implements the paper's actual deployment shape (§V): a
// cluster of independent OS processes synchronizing through a shared file
// system. The master lays out a work directory — one base-tuple file per
// partition, the compiled rule file, and the resource ownership table — and
// each node process runs Algorithm 3's round loop against it: materialize,
// write outbox files, drop a done-marker, poll for every peer's marker,
// absorb inboxes, repeat; global quiescence (zero tuples sent by anyone in
// a round) terminates the run.
//
// cmd/owlcluster (master) and cmd/owlnode (worker) are thin wrappers; the
// package itself is process-agnostic, so the integration tests run k nodes
// as goroutines against one temp dir — the protocol on disk is identical.
package fscluster

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"powl/internal/faultinject"
	"powl/internal/ntriples"
	"powl/internal/obs"
	"powl/internal/owlhorst"
	"powl/internal/partition"
	"powl/internal/rdf"
	"powl/internal/reason"
	"powl/internal/rules"
)

// Layout names the files of a work directory.
type Layout struct {
	Dir string
}

// PartFile is the base-tuple file of node id.
func (l Layout) PartFile(id int) string { return filepath.Join(l.Dir, fmt.Sprintf("part_%02d.nt", id)) }

// RulesFile holds the compiled instance rules.
func (l Layout) RulesFile() string { return filepath.Join(l.Dir, "rules.rules") }

// OwnerFile holds the resource ownership table (term TAB partition).
func (l Layout) OwnerFile() string { return filepath.Join(l.Dir, "owner.tsv") }

// MsgFile is the round-r message file from node i to node j.
func (l Layout) MsgFile(round, from, to int) string {
	return filepath.Join(l.Dir, fmt.Sprintf("msg_r%03d_n%02d_to_n%02d.nt", round, from, to))
}

// LinMsgFile is the lineage sidecar of MsgFile(round, from, to): derivation
// records (JSON Lines, ntriples lineage codec) for the derived tuples of
// that message, written only when the sender runs with provenance on. The
// .jsonl suffix keeps sidecars out of every *.nt glob.
func (l Layout) LinMsgFile(round, from, to int) string {
	return filepath.Join(l.Dir, fmt.Sprintf("msg_r%03d_n%02d_to_n%02d.lin.jsonl", round, from, to))
}

// LinCkptFile is the lineage sidecar of CkptFile(round, id).
func (l Layout) LinCkptFile(round, id int) string {
	return filepath.Join(l.Dir, fmt.Sprintf("ckpt_r%03d_n%02d.lin.jsonl", round, id))
}

// DelCkptFile is the tombstone sidecar of node id's round-r checkpoint: the
// node's cumulative deleted-triple set as plain N-Triples. Adopters and
// rejoining nodes replay the newest one after reconstructing the tuple
// files, so deletions survive a crash the way derivations do. The extra
// .del segment keeps it out of the `ckpt_r*_nNN.nt` checkpoint glob.
func (l Layout) DelCkptFile(round, id int) string {
	return filepath.Join(l.Dir, fmt.Sprintf("ckpt_r%03d_n%02d.del.nt", round, id))
}

// delCkptGlob matches all of node i's tombstone sidecars.
func (l Layout) delCkptGlob(id int) string {
	return filepath.Join(l.Dir, fmt.Sprintf("ckpt_r*_n%02d.del.nt", id))
}

// linMsgGlob matches all lineage sidecars of messages addressed to node i.
func (l Layout) linMsgGlob(to int) string {
	return filepath.Join(l.Dir, fmt.Sprintf("msg_r*_n*_to_n%02d.lin.jsonl", to))
}

// linCkptGlob matches all of node i's checkpoint lineage sidecars.
func (l Layout) linCkptGlob(id int) string {
	return filepath.Join(l.Dir, fmt.Sprintf("ckpt_r*_n%02d.lin.jsonl", id))
}

// MarkerFile is node i's end-of-round marker; its content is the number of
// tuples the node sent this round.
func (l Layout) MarkerFile(round, id int) string {
	return filepath.Join(l.Dir, fmt.Sprintf("done_r%03d_n%02d", round, id))
}

// ClosureFile is node i's final output.
func (l Layout) ClosureFile(id int) string {
	return filepath.Join(l.Dir, fmt.Sprintf("closure_%02d.nt", id))
}

// CkptFile is node i's round-r checkpoint: the tuples the node derived that
// round (its routing delta). Together with the base partition and the message
// files addressed to i, the checkpoints reconstruct i's graph after any
// completed round — the recovery path relies on exactly that.
func (l Layout) CkptFile(round, id int) string {
	return filepath.Join(l.Dir, fmt.Sprintf("ckpt_r%03d_n%02d.nt", round, id))
}

// JournalFile is node i's telemetry journal fragment, written when the node
// runs with observability on; the master merges the fragments into one
// timeline for trace export and reporting.
func (l Layout) JournalFile(id int) string {
	return filepath.Join(l.Dir, fmt.Sprintf("journal_n%02d.jsonl", id))
}

// DeadFile marks node i as failed; its content is the adopter's id. Written
// by the supervisor, honoured by every node's barrier wait.
func (l Layout) DeadFile(id int) string {
	return filepath.Join(l.Dir, fmt.Sprintf("dead_n%02d", id))
}

// EpochFile counts node i's starts against this work directory; a value
// above 1 on startup means the node is rejoining a run already in progress.
func (l Layout) EpochFile(id int) string {
	return filepath.Join(l.Dir, fmt.Sprintf("epoch_n%02d", id))
}

// ckptGlob matches all of node i's checkpoint files.
func (l Layout) ckptGlob(id int) string {
	return filepath.Join(l.Dir, fmt.Sprintf("ckpt_r*_n%02d.nt", id))
}

// msgGlob matches all message files addressed to node i.
func (l Layout) msgGlob(to int) string {
	return filepath.Join(l.Dir, fmt.Sprintf("msg_r*_n*_to_n%02d.nt", to))
}

// MetaFile records the cluster size for the nodes.
func (l Layout) MetaFile() string { return filepath.Join(l.Dir, "cluster.meta") }

// Prepare is the master-side step: compile the ontology, partition the
// instance data with the given policy, and write the work directory. It
// returns the partitioning metrics for reporting.
func Prepare(dir string, dict *rdf.Dict, g *rdf.Graph, k int, pol partition.Policy) (*partition.Metrics, error) {
	l := Layout{Dir: dir}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	compiled := owlhorst.Compile(dict, g)
	in := &partition.Input{
		Dict:     dict,
		Instance: owlhorst.SplitInstance(dict, g),
		Skip:     owlhorst.SchemaElements(dict, compiled.Schema),
	}
	pres, err := partition.Partition(in, k, pol)
	if err != nil {
		return nil, err
	}
	m := partition.ComputeMetrics(in, pres)

	// Base-tuple files: each node's slice plus the replicated schema.
	schema := compiled.Schema.Triples()
	for i := 0; i < k; i++ {
		pg := rdf.NewGraphCap(len(pres.Parts[i]) + len(schema))
		pg.AddAll(pres.Parts[i])
		pg.AddAll(schema)
		if err := writeGraphFile(l.PartFile(i), dict, pg); err != nil {
			return nil, err
		}
	}

	// Rule file, in the parseable Jena-style syntax.
	var rb strings.Builder
	for _, r := range compiled.InstanceRules {
		rb.WriteString(r.Format(dict))
		rb.WriteByte('\n')
	}
	if err := os.WriteFile(l.RulesFile(), []byte(rb.String()), 0o644); err != nil {
		return nil, err
	}

	// Ownership table, in ascending resource-ID order so the file is
	// byte-stable across runs of the same (input, seed) — map order would
	// reshuffle it every run.
	ids := make([]rdf.ID, 0, len(pres.Owner))
	for id := range pres.Owner {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var ob strings.Builder
	for _, id := range ids {
		ob.WriteString(dict.Term(id).String())
		ob.WriteByte('\t')
		ob.WriteString(strconv.Itoa(pres.Owner[id]))
		ob.WriteByte('\n')
	}
	if err := os.WriteFile(l.OwnerFile(), []byte(ob.String()), 0o644); err != nil {
		return nil, err
	}
	if err := os.WriteFile(l.MetaFile(), []byte(strconv.Itoa(k)+"\n"), 0o644); err != nil {
		return nil, err
	}
	return &m, nil
}

// ClusterSize reads k from the work directory.
func ClusterSize(dir string) (int, error) {
	b, err := os.ReadFile(Layout{Dir: dir}.MetaFile())
	if err != nil {
		return 0, err
	}
	return strconv.Atoi(strings.TrimSpace(string(b)))
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
	// MaxRounds is a safety cap; 0 means 1000.
	MaxRounds int
	// Inject optionally simulates failures: when its CrashRound fires the
	// node exits with ErrCrashed mid-protocol, exactly as a killed process
	// would look to its peers. Nil means no injection.
	Inject *faultinject.Injector
	// Obs, when non-nil, journals this node's run: phase spans per round,
	// checkpoint sizes, injected faults, adoptions, and per-rule profiles.
	// Each node process journals on its own clock (ns since its own start);
	// cmd/owlcluster merges the per-node fragments into one timeline.
	Obs *obs.Run
	// Provenance enables derivation recording on this node's graph: the
	// engine records rule + premises per derived tuple, and message and
	// checkpoint files get JSONL lineage sidecars so receivers, adopters
	// and rejoining nodes keep the records. Nodes running without it simply
	// ignore the sidecars; the closure is unaffected.
	Provenance bool
}

// ErrCrashed is returned by a node whose fault injector fired its crash
// trigger; the node stops without writing its round marker.
var ErrCrashed = errors.New("fscluster: node crashed (fault injection)")

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

// node is one running worker's in-memory state, shared by the round loop and
// the recovery path in recover.go.
type node struct {
	cfg   NodeConfig
	l     Layout
	dict  *rdf.Dict
	g     *rdf.Graph
	rules []rules.Rule
	owner map[rdf.ID]int
	// shipped is the graph-log watermark of routed knowledge: every triple
	// at log offset < shipped is base, already routed, or received (global
	// knowledge). The graph log is append-only and deduplicated, so the
	// route phase's delta is exactly TriplesSince(shipped) — no per-tuple
	// membership map, no full-graph walk per round.
	shipped int
	// reship holds adopted checkpoint tuples that sit below the watermark
	// but still need routing: a dead peer may have derived them without
	// completing its sends, so the adopter re-routes them (receivers
	// deduplicate). Empty except after an adoption or rejoin.
	reship   map[rdf.Triple]struct{}
	received []rdf.Triple
	// adopted lists dead peers this node has taken over (recover.go).
	adopted []int
	res     *NodeResult
}

// RunNode executes Algorithm 3's round loop for one node against the shared
// directory, writing its closure file before returning.
func RunNode(cfg NodeConfig) (*NodeResult, error) {
	return RunNodeContext(context.Background(), cfg)
}

// RunNodeContext is RunNode with cancellation: the context is checked each
// round, passed to the engine's fixpoint loop, and honoured by the barrier
// poll, so a cancelled node stops within one round phase.
//
//powl:ignore wallclock per-phase durations are real measurements journaled per node; the shared-FS deployment has no simulated mode.
func RunNodeContext(ctx context.Context, cfg NodeConfig) (*NodeResult, error) {
	if cfg.Engine == nil {
		cfg.Engine = reason.Forward{}
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 20 * time.Millisecond
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 5 * time.Minute
	}
	if cfg.MaxRounds <= 0 {
		cfg.MaxRounds = 1000
	}
	n := &node{cfg: cfg, l: Layout{Dir: cfg.Dir}, dict: rdf.NewDict(),
		g: rdf.NewGraph(), res: &NodeResult{}}
	if cfg.Provenance {
		// Enable before the base load so the side-column is built in
		// lockstep; base tuples read as asserted.
		n.g.EnableProv()
	}
	if err := readGraphFile(n.l.PartFile(cfg.ID), n.dict, n.g); err != nil {
		return nil, fmt.Errorf("fscluster: node %d: %w", cfg.ID, err)
	}
	ruleSrc, err := os.ReadFile(n.l.RulesFile())
	if err != nil {
		return nil, err
	}
	if n.rules, err = rules.Parse(string(ruleSrc), n.dict); err != nil {
		return nil, fmt.Errorf("fscluster: node %d: rules: %w", cfg.ID, err)
	}
	if n.owner, err = readOwnerTable(n.l.OwnerFile(), n.dict); err != nil {
		return nil, fmt.Errorf("fscluster: node %d: %w", cfg.ID, err)
	}

	// The base partition was placed by the partitioner; it never routes.
	n.shipped = n.g.Len()
	n.reship = map[rdf.Triple]struct{}{}

	// Epoch bookkeeping: bump the start counter first thing, so a restarted
	// process announces itself before touching any round state. A second
	// start against the same work directory is a rejoin.
	epoch, err := readEpoch(n.l, cfg.ID)
	if err != nil {
		return nil, fmt.Errorf("fscluster: node %d: %w", cfg.ID, err)
	}
	epoch++
	if err := writeAtomic(n.l.EpochFile(cfg.ID), strconv.Itoa(epoch)); err != nil {
		return nil, err
	}
	n.res.Epoch = epoch

	startRound := 0
	if epoch > 1 {
		// A supervisor may already have declared this node dead, in which
		// case an adopter owns the partition now; coming back anyway would
		// put two nodes behind one inbox.
		if adopter, dead := readDeadFile(n.l, cfg.ID); dead {
			return nil, fmt.Errorf("fscluster: node %d: declared dead (partition adopted by node %d); cannot rejoin", cfg.ID, adopter)
		}
		last, err := lastCompletedRound(n.l, cfg.ID)
		if err != nil {
			return nil, err
		}
		if last >= 0 {
			// Replay persisted state: delivered messages are already-routed
			// knowledge and land below the shipping watermark; checkpointed
			// deltas may have died in transit, so they are queued for
			// re-shipping (receivers deduplicate). materialized stays
			// false — the first round after a rejoin re-reasons over the
			// reconstructed graph, which is safe because forward inference is
			// deterministic and monotone over the same inputs.
			linMap, err := loadLineageSidecars(n.l, cfg.ID, n.dict, n.g, cfg.Obs, cfg.ID, last)
			if err != nil {
				return nil, fmt.Errorf("fscluster: node %d rejoining lineage: %w", cfg.ID, err)
			}
			add := func(t rdf.Triple) bool {
				if lin, ok := linMap[t]; ok {
					return n.g.AddWithLineage(t, lin)
				}
				return n.g.Add(t)
			}
			if err := reconstruct(n.l, cfg.ID, n.dict, nil, func(t rdf.Triple, routed bool) {
				if routed {
					add(t)
					delete(n.reship, t)
					return
				}
				if add(t) {
					n.reship[t] = struct{}{}
				}
			}); err != nil {
				return nil, fmt.Errorf("fscluster: node %d rejoining: %w", cfg.ID, err)
			}
			// Deletions last: the tuple replay above re-adds every triple the
			// node ever knew, live or not, and the newest tombstone sidecar
			// re-kills the dead ones.
			if err := n.applyDeletions(cfg.ID, last+1); err != nil {
				return nil, fmt.Errorf("fscluster: node %d rejoining deletions: %w", cfg.ID, err)
			}
			n.shipped = n.g.Len()
			startRound = last + 1
		}
		cfg.Obs.Emit(obs.Event{Type: obs.EvRejoin, TS: cfg.Obs.Now(),
			Worker: cfg.ID, Round: startRound, N: int64(epoch)})
	}
	n.res.StartRound = startRound

	materialized := false
	// With Obs nil the collector is nil and ctx is returned unchanged.
	ctx = obs.ContextWithRules(ctx, cfg.Obs.Rules(cfg.ID))

	for round := startRound; round < cfg.MaxRounds; round++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if cfg.Inject.Crash(round) {
			cfg.Obs.Emit(obs.Event{Type: obs.EvFault, TS: cfg.Obs.Now(),
				Worker: cfg.ID, Round: round, Name: "injected crash"})
			return nil, ErrCrashed
		}
		n.res.Rounds = round + 1

		// Reason.
		reasonT0 := time.Now()
		switch {
		case !materialized:
			d, err := cfg.Engine.MaterializeCtx(ctx, n.g, n.rules)
			if err != nil {
				return nil, err
			}
			n.res.Derived += d
			materialized = true
		case len(n.received) == 0:
			// Still at fixpoint.
		default:
			d, err := cfg.Engine.MaterializeFromCtx(ctx, n.g, n.rules, n.received)
			if err != nil {
				return nil, err
			}
			n.res.Derived += d
		}
		n.received = n.received[:0]
		n.emitPhase(round, obs.PhaseReason, time.Since(reasonT0), 0)

		// Route: collect per-destination outboxes. The routing delta — every
		// tuple new since the last route — is also this round's checkpoint:
		// base partition + checkpoints + delivered messages reconstruct this
		// node's graph if it dies later (recover.go).
		sendT0 := time.Now()
		outbox := map[int][]rdf.Triple{}
		var delta []rdf.Triple
		nSent := 0
		route := func(t rdf.Triple) {
			delta = append(delta, t)
			for _, dst := range destinations(n.owner, t, cfg.ID) {
				if n.isAdopted(dst) {
					continue // we are that node now; the tuple is already local
				}
				outbox[dst] = append(outbox[dst], t)
				nSent++
			}
		}
		for _, t := range n.g.TriplesSince(n.shipped) {
			route(t)
		}
		n.shipped = n.g.Len()
		if len(n.reship) > 0 {
			// Adopted checkpoint tuples, in sorted order: the injected fault
			// schedule counts Send calls, so map order would change which
			// write a deterministic fault hits from run to run.
			rs := make([]rdf.Triple, 0, len(n.reship))
			for t := range n.reship {
				rs = append(rs, t)
			}
			sort.Slice(rs, func(i, j int) bool { return rs[i].Less(rs[j]) })
			for _, t := range rs {
				route(t)
			}
			clear(n.reship)
		}
		if len(delta) > 0 {
			cg := rdf.NewGraphCap(len(delta))
			cg.AddAll(delta)
			ckpt := n.l.CkptFile(round, cfg.ID)
			if err := writeGraphFile(ckpt, n.dict, cg); err != nil {
				return nil, err
			}
			// Lineage sidecar before the marker, like the checkpoint itself:
			// an adopter must never see a checkpoint whose sidecar is still
			// in flight (both are atomically renamed; a crash between the two
			// just degrades that delta to lineage-free replay).
			if err := writeLineageFile(n.l.LinCkptFile(round, cfg.ID), n.dict, lineageOfAll(n.g, delta)); err != nil {
				return nil, err
			}
			if cfg.Obs != nil {
				var size int64
				if fi, err := os.Stat(ckpt); err == nil {
					size = fi.Size()
				}
				cfg.Obs.Emit(obs.Event{Type: obs.EvCheckpoint, TS: cfg.Obs.Now(),
					Worker: cfg.ID, Round: round, N: int64(len(delta)), Bytes: size})
			}
		}
		// Tombstone sidecar, before the marker like the checkpoint: the set
		// is cumulative (the log never reuses offsets), so only the newest
		// sidecar matters to a future adopter or rejoin.
		if n.g.Dead() > 0 {
			if err := writeDelSidecar(n.l, round, cfg.ID, n.dict, n.g); err != nil {
				return nil, err
			}
		}
		// Ascending destination order: the injected fault schedule counts
		// Send calls, so map order would change which destination a
		// deterministic fault hits from run to run.
		dsts := make([]int, 0, len(outbox))
		for dst := range outbox {
			dsts = append(dsts, dst)
		}
		sort.Ints(dsts)
		for _, dst := range dsts {
			ts := outbox[dst]
			// An injected send fault is a node failure here: there is no
			// transport to retry through, so the node fail-stops and the
			// recovery path takes over.
			if err := cfg.Inject.Send(); err != nil {
				return nil, err
			}
			og := rdf.NewGraphCap(len(ts))
			og.AddAll(ts)
			msg := n.l.MsgFile(round, cfg.ID, dst)
			if err := writeGraphFile(msg, n.dict, og); err != nil {
				return nil, err
			}
			if err := writeLineageFile(n.l.LinMsgFile(round, cfg.ID, dst), n.dict, lineageOfAll(n.g, ts)); err != nil {
				return nil, err
			}
			if cfg.Obs != nil {
				var size int64
				if fi, err := os.Stat(msg); err == nil {
					size = fi.Size()
				}
				cfg.Obs.Transport().Batch(cfg.ID, dst, len(ts), size)
			}
		}
		n.res.Sent += nSent

		// Done marker with the sent count, then the shared-FS barrier: poll
		// until every peer's marker for this round exists. Markers for peers
		// adopted in earlier rounds are this node's to write.
		if err := writeAtomic(n.l.MarkerFile(round, cfg.ID), strconv.Itoa(nSent)); err != nil {
			return nil, err
		}
		for _, d := range n.adopted {
			if err := writeAtomic(n.l.MarkerFile(round, d), "0"); err != nil {
				return nil, err
			}
		}
		n.emitPhase(round, obs.PhaseSend, time.Since(sendT0), int64(nSent))

		syncT0 := time.Now()
		totalSent, err := n.awaitMarkers(ctx, round)
		if err != nil {
			return nil, err
		}
		n.emitPhase(round, obs.PhaseSync, time.Since(syncT0), 0)

		// Absorb inboxes — our own plus those of any adopted peers, whose
		// owned resources the rest of the cluster still routes to.
		recvT0 := time.Now()
		inboxes := append([]int{cfg.ID}, n.adopted...)
		for from := 0; from < cfg.K; from++ {
			for _, to := range inboxes {
				if from == to {
					continue
				}
				path := n.l.MsgFile(round, from, to)
				if _, statErr := os.Stat(path); statErr != nil {
					continue // peer sent nothing to this inbox this round
				}
				if err := cfg.Inject.Recv(); err != nil {
					return nil, err
				}
				in := rdf.NewGraph()
				if err := readGraphFile(path, n.dict, in); err != nil {
					return nil, err
				}
				// Sidecar lineage for the message, when this node records
				// provenance and the sender wrote one. Records match triples
				// by value; a missing sidecar (lineage-free sender, or a
				// crash between message and sidecar) degrades the batch to
				// asserted tuples, and that decision is journaled — prov-on
				// senders always write the sidecar, so absence is never the
				// benign all-asserted case.
				var linMap map[rdf.Triple]rdf.Lineage
				if n.g.Prov() != nil {
					linPath := n.l.LinMsgFile(round, from, to)
					if _, statErr := os.Stat(linPath); statErr != nil {
						if in.Len() > 0 {
							o := n.cfg.Obs
							o.Emit(obs.Event{Type: obs.EvWarn, TS: o.Now(), Worker: to, Round: round,
								Name: fmt.Sprintf("lineage sidecar missing for message %d->%d; batch of %d degraded to asserted tuples", from, to, in.Len())})
						}
					} else {
						lins, lerr := readLineageFile(linPath, n.dict)
						if lerr != nil {
							return nil, lerr
						}
						linMap = lineageByTriple(lins)
					}
				}
				for _, t := range in.TriplesSince(0) {
					delete(n.reship, t)
					added := false
					if lin, ok := linMap[t]; ok {
						added = n.g.AddWithLineage(t, lin)
					} else {
						added = n.g.Add(t)
					}
					if added {
						n.received = append(n.received, t)
					}
				}
			}
		}
		// Everything in the graph is now global knowledge — received tuples,
		// and any state an adoption merged during the barrier wait; only the
		// reship queue carries adopted checkpoint tuples into the next route
		// phase.
		n.shipped = n.g.Len()
		n.emitPhase(round, obs.PhaseRecv, time.Since(recvT0), int64(len(n.received)))

		if totalSent == 0 {
			break
		}
	}

	if err := writeGraphFile(n.l.ClosureFile(cfg.ID), n.dict, n.g); err != nil {
		return nil, err
	}
	cfg.Obs.FlushProfiles(cfg.Obs.Now())
	n.res.Closure = n.g
	return n.res, nil
}

// emitPhase journals one completed phase slice on this node's clock; the
// start is reconstructed by subtracting the measured duration. No-op with
// observability off.
func (n *node) emitPhase(round int, phase string, d time.Duration, count int64) {
	o := n.cfg.Obs
	o.Emit(obs.Event{Type: obs.EvPhase, TS: o.Now() - int64(d), Dur: int64(d),
		Worker: n.cfg.ID, Round: round, Phase: phase, N: count})
}

// isAdopted reports whether this node has taken over peer id.
func (n *node) isAdopted(id int) bool {
	for _, d := range n.adopted {
		if d == id {
			return true
		}
	}
	return false
}

// awaitMarkers polls for all k markers of the round and returns the summed
// sent counts. A peer whose marker is missing but whose dead-file names this
// node as adopter is taken over on the spot (recover.go); its marker then
// appears and the barrier completes for everyone.
//
//powl:ignore wallclock the shared-FS barrier polls against a real deadline — liveness, not output.
func (n *node) awaitMarkers(ctx context.Context, round int) (int, error) {
	l, cfg := n.l, n.cfg
	deadline := time.Now().Add(cfg.Timeout)
	for {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		total := 0
		missing := false
		for i := 0; i < cfg.K; i++ {
			b, err := os.ReadFile(l.MarkerFile(round, i))
			if err != nil {
				if adopter, dead := readDeadFile(l, i); dead && adopter == cfg.ID && !n.isAdopted(i) {
					if aerr := n.adopt(i, round); aerr != nil {
						return 0, aerr
					}
					// The adoption wrote i's marker; re-read it next pass.
				}
				missing = true
				break
			}
			v, err := strconv.Atoi(strings.TrimSpace(string(b)))
			if err != nil {
				return 0, fmt.Errorf("fscluster: bad marker %s: %w", l.MarkerFile(round, i), err)
			}
			total += v
		}
		if !missing {
			return total, nil
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("fscluster: node %d: timed out waiting for round %d markers", cfg.ID, round)
		}
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(cfg.Poll):
		}
	}
}

// destinations routes a derived tuple to the owners of its subject and
// object (§IV); unowned (schema) endpoints route nowhere.
func destinations(owner map[rdf.ID]int, t rdf.Triple, self int) []int {
	var out []int
	if p, ok := owner[t.S]; ok && p != self {
		out = append(out, p)
	}
	if q, ok := owner[t.O]; ok && q != self && (len(out) == 0 || out[0] != q) {
		out = append(out, q)
	}
	return out
}

// MergeClosures unions the k closure files into one graph. A node declared
// dead has no closure file; its contribution is reconstructed from its base
// partition, checkpoints, and delivered messages (everything it knew at its
// last completed round — any later derivations were redone by its adopter,
// whose closure file is merged normally).
func MergeClosures(dir string, k int) (*rdf.Dict, *rdf.Graph, error) {
	l := Layout{Dir: dir}
	dict := rdf.NewDict()
	g := rdf.NewGraph()
	for i := 0; i < k; i++ {
		err := readGraphFile(l.ClosureFile(i), dict, g)
		if err == nil {
			continue
		}
		if _, dead := readDeadFile(l, i); !dead {
			return nil, nil, err
		}
		if err := reconstruct(l, i, dict, g, nil); err != nil {
			return nil, nil, fmt.Errorf("fscluster: reconstructing dead node %d: %w", i, err)
		}
	}
	return dict, g, nil
}

func readOwnerTable(path string, dict *rdf.Dict) (map[rdf.ID]int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	owner := map[rdf.ID]int{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		tab := strings.LastIndexByte(line, '\t')
		if tab < 0 {
			return nil, fmt.Errorf("owner table line %d: no tab", lineNo)
		}
		term, err := ntriples.ParseTerm(line[:tab])
		if err != nil {
			return nil, fmt.Errorf("owner table line %d: %w", lineNo, err)
		}
		p, err := strconv.Atoi(line[tab+1:])
		if err != nil {
			return nil, fmt.Errorf("owner table line %d: %w", lineNo, err)
		}
		owner[dict.Intern(term)] = p
	}
	return owner, sc.Err()
}

func writeGraphFile(path string, dict *rdf.Dict, g *rdf.Graph) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := ntriples.WriteGraph(f, dict, g); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func writeAtomic(path, content string) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(content), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func readGraphFile(path string, dict *rdf.Dict, g *rdf.Graph) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = ntriples.ReadGraph(bufio.NewReader(f), dict, g)
	return err
}

// writeLineageFile writes a JSONL lineage sidecar next to a graph file,
// atomically like writeGraphFile. An empty record set writes nothing: readers
// treat a missing sidecar as lineage-free.
func writeLineageFile(path string, dict *rdf.Dict, lins []rdf.Lineage) error {
	// nil means "sender records no provenance" and writes nothing; an empty
	// non-nil set still writes the (empty) sidecar so receivers can tell a
	// recordless batch from a missing file.
	if lins == nil {
		return nil
	}
	var buf bytes.Buffer
	if err := ntriples.WriteLineage(&buf, dict, lins); err != nil {
		return err
	}
	return writeAtomic(path, buf.String())
}

// readLineageFile reads a JSONL lineage sidecar; a missing file is not an
// error (the writer had no derivations to describe, or predates provenance).
func readLineageFile(path string, dict *rdf.Dict) ([]rdf.Lineage, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ntriples.ReadLineage(bufio.NewReader(f), dict)
}

// writeDelSidecar persists g's cumulative tombstone set as the round's
// deletion sidecar; no tombstones writes nothing (readers treat a missing
// sidecar as deletion-free, mirroring the lineage rule).
func writeDelSidecar(l Layout, round, id int, dict *rdf.Dict, g *rdf.Graph) error {
	dead := g.DeadTriples()
	if len(dead) == 0 {
		return nil
	}
	dg := rdf.NewGraphCap(len(dead))
	dg.AddAll(dead)
	return writeGraphFile(l.DelCkptFile(round, id), dict, dg)
}

// sidecarRound parses the round number out of a ckpt_rNNN_* path, -1 when
// the name does not carry one.
func sidecarRound(path string) int {
	var r int
	if _, err := fmt.Sscanf(filepath.Base(path), "ckpt_r%03d_", &r); err != nil {
		return -1
	}
	return r
}

// applyDelSidecars replays node id's newest tombstone sidecar into g and
// returns how many triples it deleted. Degradation mirrors the lineage
// sidecar rule: a node that never wrote one replays deletion-free with no
// fuss, while a sidecar that is unreadable — or provably missing for the
// newest checkpointed round (crash between checkpoint and sidecar) —
// degrades to the best available set with a journaled warning.
func applyDelSidecars(l Layout, id int, dict *rdf.Dict, g *rdf.Graph, o *obs.Run, worker, round int) (int, error) {
	dels, err := filepath.Glob(l.delCkptGlob(id))
	if err != nil {
		return 0, err
	}
	if len(dels) == 0 {
		return 0, nil
	}
	sort.Strings(dels) // %03d rounds: lexicographic order is round order
	newest := dels[len(dels)-1]
	warn := func(msg string) {
		o.Emit(obs.Event{Type: obs.EvWarn, TS: o.Now(), Worker: worker, Round: round, Name: msg})
	}
	ckpts, err := filepath.Glob(l.ckptGlob(id))
	if err != nil {
		// Freshness cannot be verified; the replay below still proceeds on
		// the newest tombstone sidecar, so say so rather than guess silently.
		warn(fmt.Sprintf("node %d checkpoint glob failed (%v); tombstone sidecar freshness unverified", id, err))
	} else if len(ckpts) > 0 {
		sort.Strings(ckpts)
		if cr, dr := sidecarRound(ckpts[len(ckpts)-1]), sidecarRound(newest); cr > dr {
			warn(fmt.Sprintf("node %d tombstone sidecar missing for round %d; replaying deletions as of round %d", id, cr, dr))
		}
	}
	dg := rdf.NewGraph()
	if err := readGraphFile(newest, dict, dg); err != nil {
		warn(fmt.Sprintf("node %d tombstone sidecar %s unreadable (%v); degrading to no deletions", id, filepath.Base(newest), err))
		return 0, nil
	}
	return g.Delete(dg.TriplesSince(0)), nil
}

// applyDeletions replays peer id's tombstone sidecars into this node's graph
// and scrubs the reship and received queues of anything that died: a deleted
// triple must be neither re-routed nor used to seed the next round's joins.
func (n *node) applyDeletions(id, round int) error {
	deleted, err := applyDelSidecars(n.l, id, n.dict, n.g, n.cfg.Obs, n.cfg.ID, round)
	if err != nil || deleted == 0 {
		return err
	}
	for t := range n.reship {
		if !n.g.Has(t) {
			delete(n.reship, t)
		}
	}
	kept := n.received[:0]
	for _, t := range n.received {
		if n.g.Has(t) {
			kept = append(kept, t)
		}
	}
	n.received = kept
	return nil
}

// lineageOfAll collects the lineage records g holds for ts, in ts order.
// Asserted or unrecorded triples are skipped; shipping them without a record
// just means the receiver stores them as asserted.
func lineageOfAll(g *rdf.Graph, ts []rdf.Triple) []rdf.Lineage {
	if g.Prov() == nil {
		return nil
	}
	// Non-nil even when empty: a prov-on sender always has a lineage set
	// (possibly zero records, when every shipped triple is asserted), and
	// writeLineageFile materializes non-nil sets as a sidecar file. That
	// keeps "sidecar absent" unambiguous for the receiver — it means a
	// lineage-free sender or a crash, never a quiet all-asserted batch.
	out := make([]rdf.Lineage, 0, len(ts))
	for _, t := range ts {
		if lin, ok := g.LineageOf(t); ok {
			out = append(out, lin)
		}
	}
	return out
}

// lineageByTriple indexes records by their subject triple, first record wins.
func lineageByTriple(lins []rdf.Lineage) map[rdf.Triple]rdf.Lineage {
	if len(lins) == 0 {
		return nil
	}
	m := make(map[rdf.Triple]rdf.Lineage, len(lins))
	for _, lin := range lins {
		if _, ok := m[lin.T]; !ok {
			m[lin.T] = lin
		}
	}
	return m
}
