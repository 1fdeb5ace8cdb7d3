package cluster

import (
	"testing"

	"powl/internal/faultinject"
	"powl/internal/partition"
	"powl/internal/rdf"
	"powl/internal/reason"
	"powl/internal/refclosure"
	"powl/internal/transport"
)

// TestAggregateSizesAndOR pins a fixed k=2 plan's per-worker output sizes
// and the OR metric core reports from them. A size read after the
// aggregate would count the whole closure for worker 0 wherever the result
// grows worker 0's own graph (the union).
func TestAggregateSizesAndOR(t *testing.T) {
	for _, mode := range []Mode{Concurrent, Simulated} {
		for _, kind := range []string{"mem", "tcp"} {
			f := newChainFixture(t, 12, 2)
			var tr transport.Transport = transport.NewMem()
			if kind == "tcp" {
				var err error
				if tr, err = transport.NewTCP(2, f.dict); err != nil {
					t.Fatal(err)
				}
			}
			res := runModes(t, 2, tr, f, mode)
			tr.Close()
			if got := res.OutputSizes; len(got) != 2 || got[0] != 51 || got[1] != 51 {
				t.Fatalf("mode=%v %s: OutputSizes %v, want [51 51]", mode, kind, got)
			}
			if res.Graph.Len() != 66 || !res.Graph.Equal(f.closed) {
				t.Fatalf("mode=%v %s: closure has %d triples, want 66", mode, kind, res.Graph.Len())
			}
			if or := partition.OutputReplication(res.OutputSizes, res.Graph.Len()); or != 102.0/66-1 {
				t.Fatalf("mode=%v %s: OR %v, want %v", mode, kind, or, 102.0/66-1)
			}
		}
	}
}

// TestAggregateExplainsPeerDerivation: with provenance on, a triple only
// worker 1 derived reaches the result through the union into worker 0's
// graph and still explains.
func TestAggregateExplainsPeerDerivation(t *testing.T) {
	f := newChainFixture(t, 12, 2)
	res, err := Run(Config{
		Engine:     reason.Forward{},
		Transport:  transport.NewMem(),
		Router:     ownerRouter{f.owner},
		Provenance: true,
	}, f.assignments(2))
	if err != nil {
		t.Fatal(err)
	}
	// Both ends belong to worker 1, so the router never ships it to 0.
	tr := rdf.Triple{S: f.nodes[8], P: f.p, O: f.nodes[11]}
	if f.owner[tr.S] != 1 || f.owner[tr.O] != 1 {
		t.Fatalf("fixture moved: %v is not worker 1's alone", tr)
	}
	n, ok := res.Graph.Explain(tr, 0)
	if !ok || !n.IsDerived() || n.Rule != "tr" || len(n.Premises) == 0 {
		t.Fatalf("Explain(%v) = %+v, %v; want a derivation by rule tr", tr, n, ok)
	}
	provDerived(t, res.Graph, "tr")
}

// TestAggregateSkipsDeadFirstWorker: when worker 0 is the one declared
// dead, the result is worker 1's graph, worker 0's graph is left as it
// died, and the closure still equals the reference closure.
func TestAggregateSkipsDeadFirstWorker(t *testing.T) {
	f := newChainFixture(t, 12, 2)
	assigns := f.assignments(2)
	res, err := Run(Config{
		Engine:    reason.Forward{},
		Transport: transport.NewMem(),
		Router:    ownerRouter{f.owner},
		Recovery:  &RecoveryConfig{},
		Inject:    []*faultinject.Injector{faultinject.New(faultinject.Config{CrashRound: 1})},
	}, assigns)
	if err != nil {
		t.Fatal(err)
	}
	if a, ok := res.Recovered[0]; !ok || a != 1 {
		t.Fatalf("worker 0 not adopted by worker 1: %v", res.Recovered)
	}
	if res.OutputSizes[0] != 0 {
		t.Fatalf("dead worker 0 reported %d triples", res.OutputSizes[0])
	}
	ref := refclosure.Closure(append(append([]rdf.Triple{}, assigns[0].Base...), assigns[1].Base...), f.rules)
	if res.Graph.Len() != len(ref) {
		t.Fatalf("closure has %d triples, reference %d", res.Graph.Len(), len(ref))
	}
	for _, tr := range res.Graph.Triples() {
		if _, ok := ref[tr]; !ok {
			t.Fatalf("result holds %v, which the reference closure lacks", tr)
		}
	}

	// The same, one level down: aggregate builds on the first live graph
	// (with no router naming homes, it unions).
	ws := make([]*worker, 2)
	for i := range ws {
		ws[i] = &worker{id: i, graph: rdf.NewGraph()}
		ws[i].graph.AddAll(assigns[i].Base)
	}
	coord := newCoordinator(2, RecoveryConfig{}.withDefaults(), newBarrier(2), nil, assigns)
	coord.live[0] = false
	dead := ws[0].graph.Len()
	agg := aggregate(Config{}, ws, coord)
	if agg.Graph != ws[1].graph {
		t.Fatal("aggregate did not build on worker 1's graph")
	}
	if ws[0].graph.Len() != dead || agg.OutputSizes[0] != 0 {
		t.Fatalf("dead worker 0's graph was touched or counted: %d triples, size %d",
			ws[0].graph.Len(), agg.OutputSizes[0])
	}
}

// TestParallelBuildProvRecovery runs k=4 with provenance and recovery on,
// so the race detector sees the concurrent worker builds: each enables
// provenance on and loads its own graph while all share one checkpoint
// store.
func TestParallelBuildProvRecovery(t *testing.T) {
	f := newChainFixture(t, 16, 4)
	res, err := Run(Config{
		Engine:     reason.Forward{},
		Transport:  transport.NewMem(),
		Router:     ownerRouter{f.owner},
		Provenance: true,
		Recovery:   &RecoveryConfig{},
	}, f.assignments(4))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Graph.Equal(f.closed) {
		t.Fatalf("closure has %d triples, want %d", res.Graph.Len(), f.closed.Len())
	}
	if provDerived(t, res.Graph, "tr") == 0 {
		t.Fatal("no derivation carries lineage")
	}
}
