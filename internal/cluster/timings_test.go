package cluster

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"powl/internal/rdf"
	"powl/internal/reason"
	"powl/internal/rules"
	"powl/internal/transport"
)

// TestSimulatedElapsedComposition: the simulated elapsed time must equal the
// sum of per-round maxima plus aggregation (the documented reconstruction).
func TestSimulatedElapsedComposition(t *testing.T) {
	f := newChainFixture(t, 20, 4)
	res := runModes(t, 4, transport.NewMem(), f, Simulated)
	var sum time.Duration
	for _, rs := range res.RoundStats {
		sum += rs.MaxWork + rs.MaxRecv
	}
	sum += res.PerWorker[0].Aggregate
	if res.Elapsed != sum {
		t.Fatalf("Elapsed %v != Σ round maxima + aggregate %v", res.Elapsed, sum)
	}
}

// TestSimulatedSyncIsGapToSlowest: per worker and round, Sync accumulates
// the distance to the slowest worker; the slowest worker of every round
// contributes zero, so the minimum total Sync must be zero when one worker
// is slowest in all rounds, and in general Σ(Reason+Send+Sync) per worker
// is equal across workers (everyone "finishes" each round together).
func TestSimulatedSyncIsGapToSlowest(t *testing.T) {
	f := newChainFixture(t, 24, 3)
	res := runModes(t, 3, transport.NewMem(), f, Simulated)
	var workPlusSync []time.Duration
	for _, tm := range res.PerWorker {
		// IO here includes both send and recv; recv is outside the barrier
		// in the reconstruction, so compare reason+sync+send-portion loosely:
		// reason+sync must not exceed the total simulated compute time.
		workPlusSync = append(workPlusSync, tm.Reason+tm.Sync)
	}
	// All workers' reason+sync should be within the recv slack of each
	// other (they align at each barrier).
	var min, max time.Duration
	for i, d := range workPlusSync {
		if i == 0 || d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	// The only asymmetry is the send-phase portion of IO; bound it by the
	// total IO observed.
	var maxIO time.Duration
	for _, tm := range res.PerWorker {
		if tm.IO > maxIO {
			maxIO = tm.IO
		}
	}
	if max-min > maxIO+time.Millisecond {
		t.Fatalf("barrier alignment violated: spread %v exceeds IO slack %v", max-min, maxIO)
	}
}

// TestDerivedCountsMatchUnion: the sum of per-worker derived counts is at
// least the number of union-level inferences (replication can only push it
// higher).
func TestDerivedCountsMatchUnion(t *testing.T) {
	f := newChainFixture(t, 16, 4)
	res := runModes(t, 4, transport.NewMem(), f, Simulated)
	base := 0
	for _, a := range f.assignments(4) {
		base += len(a.Base)
	}
	derived := 0
	for _, tm := range res.PerWorker {
		derived += tm.Derived
	}
	unionInferred := res.Graph.Len() - (16 - 1) // chain has n-1 base triples
	if derived < unionInferred {
		t.Fatalf("Σ derived %d < union inferences %d", derived, unionInferred)
	}
}

// TestSimulatedAndConcurrentAgree: both modes produce the identical closure
// and round count on the same fixture.
func TestSimulatedAndConcurrentAgree(t *testing.T) {
	f := newChainFixture(t, 18, 3)
	sim := runModes(t, 3, transport.NewMem(), f, Simulated)
	conc := runModes(t, 3, transport.NewMem(), f, Concurrent)
	if !sim.Graph.Equal(conc.Graph) {
		t.Fatal("modes disagree on closure")
	}
	if sim.Rounds != conc.Rounds {
		t.Fatalf("modes disagree on rounds: %d vs %d", sim.Rounds, conc.Rounds)
	}
}

// turnCounter wraps an engine and records the most materializations it saw
// in flight at once. Each call sleeps briefly so that overlapping workers
// would be caught overlapping.
type turnCounter struct {
	reason.Engine
	cur, peak atomic.Int32
}

func (c *turnCounter) enter() func() {
	n := c.cur.Add(1)
	for p := c.peak.Load(); n > p && !c.peak.CompareAndSwap(p, n); p = c.peak.Load() {
	}
	time.Sleep(time.Millisecond)
	return func() { c.cur.Add(-1) }
}

func (c *turnCounter) MaterializeCtx(ctx context.Context, g *rdf.Graph, rs []rules.Rule) (int, error) {
	defer c.enter()()
	return c.Engine.MaterializeCtx(ctx, g, rs)
}

func (c *turnCounter) MaterializeFromCtx(ctx context.Context, g *rdf.Graph, rs []rules.Rule, seeds []rdf.Triple) (int, error) {
	defer c.enter()()
	return c.Engine.MaterializeFromCtx(ctx, g, rs, seeds)
}

// TestSimulatedWorkersTakeTurns pins the one-slot property every Simulated
// timing depends on: a worker's phases are measured alone, so no two
// workers ever materialize at once — and the closure is still the serial
// one.
func TestSimulatedWorkersTakeTurns(t *testing.T) {
	f := newChainFixture(t, 20, 4)
	eng := &turnCounter{Engine: reason.Forward{}}
	res, err := Run(Config{
		Engine:    eng,
		Transport: transport.NewMem(),
		Router:    ownerRouter{f.owner},
		Mode:      Simulated,
	}, f.assignments(4))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Graph.Equal(f.closed) {
		t.Fatalf("closure mismatch: got %d want %d", res.Graph.Len(), f.closed.Len())
	}
	if peak := eng.peak.Load(); peak != 1 {
		t.Fatalf("%d materializations in flight at once, want 1", peak)
	}
}
