// Package core is powl's public façade: it wires the paper's pipeline
// together — ontology compilation (owlhorst), workload partitioning
// (partition / rulepart), transports, and the round-based parallel reasoner
// (cluster) — behind a single Materialize call. The cmd tools, examples and
// benchmarks all drive this package.
package core

import (
	"fmt"
	"os"
	"time"

	"powl/internal/cluster"
	"powl/internal/datagen"
	"powl/internal/faultinject"
	"powl/internal/obs"
	"powl/internal/partition"
	"powl/internal/rdf"
	"powl/internal/transport"
)

// Strategy selects how the computational workload is partitioned (§III).
type Strategy string

const (
	// DataPartitioning partitions the instance triples; every worker runs
	// the full rule set (§III-A).
	DataPartitioning Strategy = "data"
	// RulePartitioning partitions the rule set; every worker holds the full
	// data (§III-B).
	RulePartitioning Strategy = "rule"
	// HybridPartitioning is the combined strategy the paper lists as future
	// work (§VII, citing Shao/Bell/Hull's PDIS'91 hybrid decomposition): the
	// data is partitioned kd ways by resource ownership AND the rule base kr
	// ways by its dependency graph; worker (i, j) holds data slice i and
	// rule group j, so Workers = kd × kr.
	//
	// Correctness inherits from both parents: a single-join rule r in group
	// j joining tuples t1, t2 that share resource v fires on worker
	// (owner(v), j), which holds both tuples (data placement) and the rule
	// (rule placement). Derived tuples route to every (owner-of-endpoint,
	// consuming-group) pair.
	HybridPartitioning Strategy = "hybrid"
)

// PolicyKind selects the ownership policy for data partitioning.
type PolicyKind string

const (
	// GraphPolicy uses the multilevel graph partitioner (the METIS
	// stand-in).
	GraphPolicy PolicyKind = "graph"
	// HashPolicy hashes resource names.
	HashPolicy PolicyKind = "hash"
	// DomainPolicy groups resources by the dataset's locality key.
	DomainPolicy PolicyKind = "domain"
)

// EngineKind selects the rule engine.
type EngineKind string

const (
	// ForwardEngine is semi-naive bottom-up datalog.
	ForwardEngine EngineKind = "forward"
	// HybridEngine is the Jena-style per-resource backward materializer.
	HybridEngine EngineKind = "hybrid"
	// HybridSharedEngine is HybridEngine with the subgoal table shared
	// across resource queries (an ablation of the paper's worst case).
	HybridSharedEngine EngineKind = "hybrid-shared"
	// ReteEngine is forward chaining through a Rete network, the algorithm
	// Jena's forward engine uses (§V).
	ReteEngine EngineKind = "rete"
)

// TransportKind selects the inter-partition communication mechanism.
type TransportKind string

const (
	// MemTransport exchanges interned triples through shared memory.
	MemTransport TransportKind = "mem"
	// FileTransport writes N-Triples files into a shared directory, as the
	// paper's implementation did.
	FileTransport TransportKind = "file"
	// TCPTransport is an MPI-like mesh of loopback TCP connections.
	TCPTransport TransportKind = "tcp"
)

// Config configures a parallel materialization.
type Config struct {
	// Workers is the number of partitions/processors; 1 is the serial
	// run every speedup is measured against, through the same machinery.
	Workers int
	// Strategy defaults to DataPartitioning.
	Strategy Strategy
	// Policy defaults to GraphPolicy (data strategy only).
	Policy PolicyKind
	// Engine defaults to ForwardEngine.
	Engine EngineKind
	// Threads fans rule firing inside each worker out over this many
	// goroutines (reason.Forward.Threads): piecewise stratified scheduling
	// with per-goroutine scratches, merged through the single-writer
	// commit. 0 or 1 fires each worker's fixpoint on its own goroutine
	// alone (the same loop with one shard). Orthogonal to
	// Workers: Workers partitions the KB across processes, Threads fans the
	// fixpoint out inside each one. The hybrid engines apply it to their
	// incremental closes only; Rete ignores it (its memories are one
	// mutable network).
	Threads int
	// Transport defaults to MemTransport.
	Transport TransportKind
	// Seed drives the deterministic pseudo-random choices of the graph
	// partitioner.
	Seed int64
	// TempDir hosts the FileTransport's message directory; "" uses the
	// system temp dir.
	TempDir string
	// Simulate runs the same round loop on one CPU slot; the clock is
	// rebuilt from per-round phase times (cluster.Simulated). Use it to
	// measure speedups on hosts with fewer cores than workers.
	Simulate bool
	// Obs, when non-nil, journals the run (phase spans, per-rule profiles,
	// per-pair transport traffic); its recorder is attached to whichever
	// transport the run constructs. nil disables all telemetry.
	Obs *obs.Run
	// Provenance enables the derivation side-column on every worker graph
	// and the aggregated result: each derived triple records the rule,
	// round and premises that produced it, and lineage rides along with
	// shipped deltas and checkpoints so cross-worker derivations stay
	// explainable. Costs ~16 B per derivation plus sidecar traffic.
	Provenance bool
	// Recovery, when non-nil, arms the cluster layer's transport-generic
	// worker recovery: per-round delta checkpoints, a failure detector, and
	// partition adoption by a surviving worker. nil fails the whole run on
	// any worker error, as before.
	Recovery *cluster.RecoveryConfig
	// Inject holds optional per-worker fault schedules passed through to the
	// cluster layer: Inject[i] drives worker i; nil entries inject nothing.
	Inject []*faultinject.Injector
	// TransportFault, when non-nil, wraps the constructed transport in a
	// fault-injecting shim driven by this injector — send/recv faults,
	// delays, and scheduled connection drops (drop=..,dropfrom=..,dropto=..)
	// — and the shim in a transport.Retry with default settings, which
	// absorbs the transient faults.
	TransportFault *faultinject.Injector
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.Strategy == "" {
		c.Strategy = DataPartitioning
	}
	if c.Policy == "" {
		c.Policy = GraphPolicy
	}
	if c.Engine == "" {
		c.Engine = ForwardEngine
	}
	if c.Transport == "" {
		c.Transport = MemTransport
	}
	return c
}

// Result of a parallel materialization.
type Result struct {
	// Graph is the union of base and inferred triples across all workers.
	Graph *rdf.Graph
	// Inferred is the number of triples beyond the input, the schema
	// closure included.
	Inferred int
	// Rounds until global quiescence.
	Rounds int
	// Elapsed is total wall-clock time (partitioning excluded).
	Elapsed time.Duration
	// PerWorker timing breakdowns (Figure 2's categories).
	PerWorker []cluster.Timings
	// PartitionTime is the cost of the partitioning step (Table I):
	// ownership computation plus triple assignment, nothing else.
	PartitionTime time.Duration
	// Metrics holds bal/IR for the data strategy (nil for rule strategy).
	Metrics *partition.Metrics
	// OR is the output replication: Σ(per-worker result size)/|union| − 1.
	OR float64
	// RuleCut is the dependency edge cut (rule strategy only).
	RuleCut int64
	// RoundStats holds per-round maxima (Simulate mode only).
	RoundStats []cluster.RoundStat
	// Recovered maps each dead worker to the live worker that adopted its
	// partition (recovery runs only; empty otherwise).
	Recovered map[int]int
}

// Materialize runs the configured parallel reasoner over the dataset and
// returns the materialized KB.
func Materialize(ds *datagen.Dataset, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	p, err := NewPlan(ds, cfg)
	if err != nil {
		return nil, err
	}
	return run(ds, p, cfg)
}

// run executes a plan: the engine and transport cfg names, the transport
// fault wrap, one cluster run, and the report.
func run(ds *datagen.Dataset, p *Plan, cfg Config) (*Result, error) {
	engine, err := NewEngine(cfg.Engine, cfg.Threads)
	if err != nil {
		return nil, err
	}
	tr, cleanup, err := transportFor(cfg, ds.Dict)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	if cfg.TransportFault != nil {
		// The shim's faults are transient, so they are retried, as
		// faultinject promises; a run fails only once a retry budget runs out.
		retry := transport.NewRetry(&faultinject.Transport{Inner: tr, Inj: cfg.TransportFault},
			transport.RetryConfig{})
		retry.Obs = cfg.Obs.Transport()
		tr = retry
	}

	mode := cluster.Concurrent
	if cfg.Simulate {
		mode = cluster.Simulated
	}
	cres, err := cluster.Run(cluster.Config{
		Engine:     engine,
		Transport:  tr,
		Router:     p.Router,
		Mode:       mode,
		Obs:        cfg.Obs,
		Provenance: cfg.Provenance,
		Recovery:   cfg.Recovery,
		Inject:     cfg.Inject,
	}, p.Assignments)
	if err != nil {
		return nil, err
	}
	return &Result{
		Graph:         cres.Graph,
		Inferred:      cres.Graph.Len() - ds.Graph.Len(),
		Rounds:        cres.Rounds,
		Elapsed:       cres.Elapsed,
		PerWorker:     cres.PerWorker,
		PartitionTime: p.PartitionTime,
		Metrics:       p.Metrics,
		OR:            partition.OutputReplication(cres.OutputSizes, cres.Graph.Len()),
		RuleCut:       p.RuleCut,
		RoundStats:    cres.RoundStats,
		Recovered:     cres.Recovered,
	}, nil
}

func transportFor(cfg Config, dict *rdf.Dict) (transport.Transport, func(), error) {
	// rec is nil when telemetry is off; the transports skip recording then.
	rec := cfg.Obs.Transport()
	switch cfg.Transport {
	case MemTransport, "":
		tr := transport.NewMem()
		tr.Obs = rec
		return tr, func() { tr.Close() }, nil
	case FileTransport:
		dir, err := os.MkdirTemp(cfg.TempDir, "powl-msgs-*")
		if err != nil {
			return nil, nil, err
		}
		tr, err := transport.NewFile(dir, dict)
		if err != nil {
			os.RemoveAll(dir)
			return nil, nil, err
		}
		tr.Obs = rec
		return tr, func() { tr.Close() }, nil
	case TCPTransport:
		tr, err := transport.NewTCP(cfg.Workers, dict)
		if err != nil {
			return nil, nil, err
		}
		tr.Obs = rec
		return tr, func() { tr.Close() }, nil
	default:
		return nil, nil, fmt.Errorf("core: unknown transport %q", cfg.Transport)
	}
}
