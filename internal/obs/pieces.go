package obs

import (
	"context"
	"sync"
	"time"
)

// PieceSpan is one stratum firing of the forward engine's fire loop: the
// engine fired `Pieces` independent rule pieces at dependency level
// `Stratum` over a `Delta`-triple queue across `Threads` shards (1 = inline
// on the caller's goroutine), committing `Derived` new triples, in `Dur`.
// Activations counts the rule activations (one rule body seeded with one
// delta triple) the shards made; per delta triple it is the dispatch's
// efficiency. Sweep is the firing's position in the materialization — the
// number provenance records carry as Round. Journalled as EvPiece events;
// with the same materialization run at different thread counts, the
// per-span durations show where the threads help.
type PieceSpan struct {
	Stratum     int
	Pieces      int
	Sweep       int
	Threads     int
	Delta       int
	Derived     int
	Activations int
	Dur         time.Duration
}

// PieceCollector accumulates piece spans across materialize calls. The
// engine records once per stratum firing from its coordinator goroutine;
// the mutex is for cross-materialization aggregation, not the hot path.
// All methods are nil-safe.
type PieceCollector struct {
	mu    sync.Mutex
	spans []PieceSpan
}

// Record appends one stratum firing's span.
func (c *PieceCollector) Record(sp PieceSpan) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.spans = append(c.spans, sp)
	c.mu.Unlock()
}

// Snapshot returns a copy of the spans recorded so far.
func (c *PieceCollector) Snapshot() []PieceSpan {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]PieceSpan, len(c.spans))
	copy(out, c.spans)
	return out
}

type piecesCtxKey struct{}

// ContextWithPieces attaches a piece collector to ctx; the forward engine's
// fire loop picks it up, at any thread count. Attaching nil returns ctx unchanged.
func ContextWithPieces(ctx context.Context, c *PieceCollector) context.Context {
	if c == nil {
		return ctx
	}
	return context.WithValue(ctx, piecesCtxKey{}, c)
}

// PiecesFrom returns the piece collector attached to ctx, or nil. Looked up
// once per materialization.
func PiecesFrom(ctx context.Context) *PieceCollector {
	c, _ := ctx.Value(piecesCtxKey{}).(*PieceCollector)
	return c
}
