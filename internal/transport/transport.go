// Package transport provides the inter-partition communication mechanisms
// of the parallel reasoner. The paper's implementation exchanged tuples
// through a shared file system (§V) and, for the rule-partitioning
// experiments, through shared memory (§VI-D); it discusses MPI as the
// obvious upgrade. This package offers all three shapes:
//
//   - Mem:  shared-memory exchange over in-process buffers (zero-copy IDs).
//   - File: a shared directory; every message is an N-Triples file, so
//     serialization and disk IO are paid exactly as in the paper.
//   - TCP:  an MPI-like full mesh of loopback TCP connections carrying
//     length-prefixed N-Triples payloads.
//
// The exchange is round-structured: during round r each worker may Send any
// number of batches; the cluster layer then runs a barrier, after which
// every worker Recvs the batches addressed to it for round r. Transports
// must deliver exactly-once within a round and must not block Send (the
// receiver may not Recv until after the barrier).
//
// Every operation takes a context: cancelling it aborts the operation (and
// with it the run), and a context deadline bounds how long a single
// Send/Recv may take — the enforcement point for per-round deadlines.
// Transient failures (connection resets, EAGAIN) can be absorbed by
// wrapping any transport in Retry; see DefaultClassify for how transient
// and fatal errors are told apart.
package transport

import (
	"context"
	"errors"

	"powl/internal/rdf"
)

// ErrMalformed marks a payload that arrived but failed to parse. Malformed
// payloads are fatal: retrying cannot repair corrupt bytes, so
// DefaultClassify never treats an error wrapping ErrMalformed as transient.
var ErrMalformed = errors.New("transport: malformed payload")

// Transport moves triples between workers of one parallel run.
type Transport interface {
	// Name identifies the transport in reports ("mem", "file", "tcp").
	Name() string
	// Send queues ts from worker `from` to worker `to` during `round`.
	// It must not block waiting for the receiver. A cancelled or expired
	// ctx aborts the send with the context's error.
	Send(ctx context.Context, round, from, to int, ts []rdf.Triple) error
	// Recv returns everything sent to worker `to` in `round`. The cluster
	// layer guarantees all Sends of the round happened before (barrier).
	Recv(ctx context.Context, round, to int) ([]rdf.Triple, error)
	// Close releases transport resources after the run.
	Close() error
}

// LineageCarrier is implemented by transports that can ship derivation
// lineage alongside the triples of a round. Lineage records are
// self-contained (rdf.Lineage carries premise triples by value), so the
// receiver re-resolves them against its own log; records are matched to
// received triples by triple value, not by position, and a transport that
// does not implement the interface simply degrades the run to
// lineage-free exchange — the closure is unaffected.
//
// SendLineage must be called only for triples of a Send in the same round
// and must not block; RecvLineage returns everything addressed to `to` in
// `round`, after the same barrier that orders Recv.
type LineageCarrier interface {
	SendLineage(ctx context.Context, round, from, to int, lins []rdf.Lineage) error
	RecvLineage(ctx context.Context, round, to int) ([]rdf.Lineage, error)
}

// LinkDropper is implemented by connection-oriented transports whose
// per-pair links can be severed at runtime — fault injection uses it to
// exercise the reconnect path. DropLink reports whether a live connection
// was actually dropped.
type LinkDropper interface {
	DropLink(from, to int) bool
}
