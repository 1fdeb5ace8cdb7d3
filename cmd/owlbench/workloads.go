package main

import "powl/internal/core"

// Input sizes, fixed and checked in. On this tree LUBM-100 is ~202k triples
// closing to ~365k, UOBM-100 ~138k closing to ~254k: large enough that every
// stage of both pipelines takes tens of milliseconds or more, small enough
// that one run with its repeated set-up fits the driver's time cap.
const (
	lubmUniversities = 100
	uobmUniversities = 100
)

// runSeconds is the measured part of one run (BENCHMARK.json run_seconds).
const runSeconds = 12

// setupRepeats is how many times a run performs its whole set-up; setup_s
// is the median, so one slow allocation burst does not decide it.
const setupRepeats = 3

// Open-loop rates, requests per second, fixed when the benchmark was defined
// and never calibrated at run time, so a slower system meets the same
// schedule with a longer queue. The read rates are about a fifth of what the
// closed loop sustains on the reference host, not half: at half, the median
// latency is mostly queueing behind scans and garbage collections and swings
// threefold between runs. The write rate is what leaves the writer compacting
// a fifth of the time. README.md has the measurements.
const (
	readMixRate     = 1000 // serve.lubm.read: whole mix, two connections
	churnLookupRate = 1000 // serve.lubm.churn: lookups, one connection
	churnWriteRate  = 40   // serve.lubm.churn: 256-triple writes, one connection
)

// Write batch sizes (triples per request).
const (
	readInsertSize  = 32
	churnInsertSize = 256
)

// Churn shape: a batch is deleted churnWindow writes after its insert, and
// every churnEdgeEvery-th delete also removes a base subOrganizationOf edge
// (re-inserted by the next insert) so DRed walks a real cone. The compaction
// thresholds make the writer compact several times inside one run.
const (
	churnWindow         = 4
	churnEdgeEvery      = 10
	churnCompactMinDead = 19500
	churnCompactRatio   = 0.005
)

type workloadKind int

const (
	kindBatch workloadKind = iota
	kindServe
)

// workload is one row of BENCHMARK.json's workloads plus what the harness
// needs to run it.
type workload struct {
	name string
	why  string
	kind workloadKind

	// batch
	dataset string // "lubm" | "uobm"
	workers int
	threads int
	policy  core.PolicyKind

	// serve
	churn bool
}

var workloads = []workload{
	{
		name: "batch.lubm.serial", kind: kindBatch, dataset: "lubm", workers: 1, threads: 1,
		why: "LUBM-100 (202k triples -> 365k), one worker, one thread: the serial baseline every speedup is quoted against; parser, store load and the forward engine do all the work",
	},
	{
		name: "batch.lubm.t2", kind: kindBatch, dataset: "lubm", workers: 1, threads: 2,
		why: "same input, Threads=2: differs from the serial run only in the parallel fire loop, so the ratio of the two is the intra-worker speedup and a parser or store change moves both",
	},
	{
		name: "batch.uobm.k2-graph", kind: kindBatch, dataset: "uobm", workers: 2, threads: 1, policy: core.GraphPolicy,
		why: "UOBM-100 (138k -> 254k), 2 workers, graph policy, TCP: the paper's default configuration; the partitioner and its closure cost model are about half of the wall time",
	},
	{
		name: "batch.uobm.k2-hash", kind: kindBatch, dataset: "uobm", workers: 2, threads: 1, policy: core.HashPolicy,
		why: "same input, hash policy: partitioning is nearly free, replication is high and each worker ships ~54k triples, so transport codec and cluster exchange/merge carry the cost",
	},
	{
		name: "serve.lubm.read", kind: kindServe, dataset: "lubm",
		why: "LUBM-100 closure over loopback HTTP, 2 connections, 80% lookups / 15% scoped joins / 3% scans / 2% 32-triple inserts: query solve, snapshot reads, admission and JSON encode; writer almost idle",
	},
	{
		name: "serve.lubm.churn", kind: kindServe, dataset: "lubm", churn: true,
		why: "same KB with provenance; one connection looks up, one writes 256-triple inserts, lagged deletes and base-edge deletes: incremental close, DRed, tombstones and compaction under readers",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricSpec is one row of BENCHMARK.json's end_to_end or per_layer list.
// bound is zero for per-layer metrics.
type metricSpec struct {
	name   string
	unit   string
	better string
	bound  float64
}

// endToEnd are the metrics every workload reports with tracing off. The
// contract wants each of them from each workload, so the timing metric is
// named for what it is to the user of that workload:
//
//	op_p50_ms  batch.*: one whole closure, N-Triples bytes in memory to the
//	           merged closure serialized (closure_s x 1000);
//	           serve.lubm.read: one lookup, from its due time to the checked
//	           reply (lookup_p50_ms);
//	           serve.lubm.churn: one write, from its due time to the first
//	           published snapshot that shows it (write_visible_p50_ms).
//
// The issue's own names (closure_s, lookup_p50_ms, sustained_ops_per_s, ...)
// are printed beside them and kept in the result file as detail metrics.
// Tails and the closed loop's sustained rate are detail and per-layer
// numbers, not bounded ones: on the reference host their run-to-run spread
// (25-90 % of the median) is wider than any bound the contract allows.
// The bounds are the widest allowed because that host's own speed wanders by
// 10-15 % from minute to minute; see README.md for the measured spreads.
var endToEnd = []metricSpec{
	{"op_p50_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the metrics of the traced run. A layer that a workload does
// not reach reports 0.
var perLayer = []metricSpec{
	{name: "ntriples.parse_s", unit: "s", better: "lower"},
	{name: "ntriples.statements", unit: "count", better: "higher"},
	{name: "ntriples.write_s", unit: "s", better: "lower"},
	{name: "rdf.load_s", unit: "s", better: "lower"},
	{name: "rdf.add_ns_per_triple", unit: "ns", better: "lower"},
	{name: "rdf.snapshot_ns", unit: "ns", better: "lower"},
	{name: "rdf.compact_count", unit: "count", better: "lower"},
	{name: "rdf.compact_total_ms", unit: "ms", better: "lower"},
	{name: "rdf.compact_max_ms", unit: "ms", better: "lower"},
	{name: "owlhorst.compile_s", unit: "s", better: "lower"},
	{name: "partition.partition_s", unit: "s", better: "lower"},
	{name: "partition.ir", unit: "ratio", better: "lower"},
	{name: "partition.bal", unit: "count", better: "lower"},
	{name: "reason.first_s", unit: "s", better: "lower"},
	{name: "reason.incremental_s", unit: "s", better: "lower"},
	{name: "reason.derived", unit: "count", better: "higher"},
	{name: "reason.derived_per_s", unit: "1/s", better: "higher"},
	{name: "reason.threads_speedup", unit: "ratio", better: "higher"},
	{name: "reason.insert_close_us", unit: "us", better: "lower"},
	{name: "reason.retract_us", unit: "us", better: "lower"},
	{name: "reason.rederive_ratio", unit: "ratio", better: "lower"},
	{name: "transport.send_s", unit: "s", better: "lower"},
	{name: "transport.recv_s", unit: "s", better: "lower"},
	{name: "transport.triples_sent", unit: "count", better: "lower"},
	{name: "transport.batches", unit: "count", better: "lower"},
	{name: "cluster.wait_s", unit: "s", better: "lower"},
	{name: "cluster.sync_s", unit: "s", better: "lower"},
	{name: "cluster.aggregate_s", unit: "s", better: "lower"},
	{name: "cluster.other_s", unit: "s", better: "lower"},
	{name: "cluster.rounds", unit: "count", better: "lower"},
	{name: "query.parse_us", unit: "us", better: "lower"},
	{name: "query.lookup_us", unit: "us", better: "lower"},
	{name: "query.solve_lookup_us", unit: "us", better: "lower"},
	{name: "query.solve_join_us", unit: "us", better: "lower"},
	{name: "query.solve_scan_us", unit: "us", better: "lower"},
	{name: "query.rows_lookup", unit: "count", better: "higher"},
	{name: "query.rows_join", unit: "count", better: "higher"},
	{name: "query.rows_scan", unit: "count", better: "higher"},
	{name: "serve.overhead_us", unit: "us", better: "lower"},
	{name: "serve.lookup_tail_ms", unit: "ms", better: "lower"},
	{name: "serve.scan_p50_ms", unit: "ms", better: "lower"},
	{name: "serve.write_visible_tail_ms", unit: "ms", better: "lower"},
	{name: "serve.shed", unit: "count", better: "lower"},
	{name: "serve.queue_timeout", unit: "count", better: "lower"},
	{name: "trace.layers_sum_s", unit: "s", better: "lower"},
	{name: "trace.traced_s", unit: "s", better: "lower"},
	{name: "trace.untraced_s", unit: "s", better: "lower"},
	{name: "trace.overhead_frac", unit: "ratio", better: "lower"},
}
