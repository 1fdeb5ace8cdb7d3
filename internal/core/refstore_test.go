package core

import (
	"testing"

	"powl/internal/cluster"
	"powl/internal/datagen"
	"powl/internal/faultinject"
	"powl/internal/obs"
	"powl/internal/owlhorst"
	"powl/internal/rdf"
	"powl/internal/refclosure"
)

// TestClosureMatchesReferenceStore materializes the Quick-scale LUBM and
// UOBM datasets through the production path (compact graph store + forward
// engine) and through the naive reference evaluator (package refclosure),
// and requires identical closures. This is the end-to-end guard for the
// store and the fire loop: any divergence in indexing, dedup, match
// extents, or join ordering shows up as a closure mismatch here. The
// one-worker run is the serial baseline every other test compares with; the
// rule strategy at k=2 and MaterializeRules at k=1 start their workers from
// a clone of the start graph, and are checked here too.
func TestClosureMatchesReferenceStore(t *testing.T) {
	if testing.Short() {
		t.Skip("closure cross-check is slow under -short")
	}
	datasets := []*datagen.Dataset{
		datagen.LUBM(datagen.LUBMConfig{Universities: 2, Seed: 7}),
		datagen.UOBM(datagen.UOBMConfig{Universities: 2, Seed: 7}),
	}
	for _, ds := range datasets {
		t.Run(ds.Name, func(t *testing.T) {
			compiled := owlhorst.Compile(ds.Dict, ds.Graph)
			base := append(owlhorst.SplitInstance(ds.Dict, ds.Graph), compiled.Schema.Triples()...)
			ref := refclosure.Closure(base, compiled.InstanceRules)

			res, err := Materialize(ds, Config{})
			if err != nil {
				t.Fatal(err)
			}
			requireClosure(t, res.Graph, ref)

			t.Run("rule-k2", func(t *testing.T) {
				res, err := Materialize(ds, Config{Workers: 2, Strategy: RulePartitioning, Seed: 42})
				if err != nil {
					t.Fatal(err)
				}
				requireClosure(t, res.Graph, ref)
			})
			t.Run("rules-k1", func(t *testing.T) {
				res, err := MaterializeRules(ds, compiled.InstanceRules, Config{})
				if err != nil {
					t.Fatal(err)
				}
				requireClosure(t, res.Graph, refclosure.Closure(ds.Graph.Triples(), compiled.InstanceRules))
			})
		})
	}
}

// requireClosure fails t unless g holds exactly the reference closure ref.
func requireClosure(t *testing.T, g *rdf.Graph, ref map[rdf.Triple]struct{}) {
	t.Helper()
	if g.Len() != len(ref) {
		t.Fatalf("closure size mismatch: graph store %d, reference %d", g.Len(), len(ref))
	}
	for _, tr := range g.Triples() {
		if _, ok := ref[tr]; !ok {
			t.Fatalf("graph store derived %v; reference closure does not contain it", tr)
		}
	}
}

// TestRuleWorkersRecoverFromStartGraph: under rule partitioning every worker
// clones one shared start graph, concurrently (the race detector watches
// the four clones), and an adopter replays a crashed worker's base from that
// graph. With provenance and recovery on and worker 1 crashing at round 1,
// the closure is the reference one, the journal records the death and the
// adoption, and derived triples still explain.
func TestRuleWorkersRecoverFromStartGraph(t *testing.T) {
	ds := tinyLUBM()
	compiled := owlhorst.Compile(ds.Dict, ds.Graph)
	base := append(owlhorst.SplitInstance(ds.Dict, ds.Graph), compiled.Schema.Triples()...)
	ref := refclosure.Closure(base, compiled.InstanceRules)

	sink := &obs.MemSink{}
	res, err := Materialize(ds, Config{
		Workers: 4, Strategy: RulePartitioning, Seed: 42,
		Provenance: true,
		Recovery:   &cluster.RecoveryConfig{},
		Inject:     []*faultinject.Injector{nil, faultinject.New(faultinject.Config{CrashRound: 1})},
		Obs:        obs.NewRun(sink, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	requireClosure(t, res.Graph, ref)
	if _, ok := res.Recovered[1]; !ok {
		t.Fatalf("worker 1 not recovered: %v", res.Recovered)
	}
	seen := map[string]bool{}
	for _, e := range sink.Events() {
		seen[e.Type] = true
	}
	for _, want := range []string{obs.EvDeath, obs.EvAdopt} {
		if !seen[want] {
			t.Errorf("journal has no %s event", want)
		}
	}
	explained := false
	for _, tr := range res.Graph.Triples() {
		if _, derived := res.Graph.LineageOf(tr); !derived {
			continue
		}
		if n, ok := res.Graph.Explain(tr, 0); !ok || !n.IsDerived() {
			t.Fatalf("Explain failed for derived %v", tr)
		}
		explained = true
		break
	}
	if !explained {
		t.Fatal("no derived triple carries lineage")
	}
}
