package cluster

import (
	"testing"

	"powl/internal/faultinject"
	"powl/internal/rdf"
	"powl/internal/reason"
	"powl/internal/transport"
)

// provDerived counts the aggregated graph's derived triples and checks
// each one explains: a non-empty premise chain whose premises are in the
// graph and whose recorded rule is the fixture's one rule.
func provDerived(t *testing.T, g *rdf.Graph, wantRule string) int {
	t.Helper()
	if g.Prov() == nil {
		t.Fatal("aggregated graph has no provenance side-column")
	}
	derived := 0
	for _, tr := range g.Triples() {
		lin, ok := g.LineageOf(tr)
		if !ok {
			continue
		}
		derived++
		if lin.Rule != wantRule {
			t.Fatalf("derived %v attributed to rule %q, want %q", tr, lin.Rule, wantRule)
		}
		if len(lin.Prem) == 0 {
			t.Fatalf("derived %v has no premises", tr)
		}
		for _, p := range lin.Prem {
			if !g.Has(p) {
				t.Fatalf("premise %v of %v not in aggregated graph", p, tr)
			}
		}
		n, ok := g.Explain(tr, 0)
		if !ok || !n.IsDerived() || len(n.Premises) == 0 {
			t.Fatalf("Explain failed for derived %v: %+v ok=%v", tr, n, ok)
		}
	}
	return derived
}

// TestProvenanceSurvivesCluster runs the chain closure with provenance on
// over the lineage-carrying Mem transport: the aggregated graph must equal
// the serial closure AND carry an explainable derivation for every derived
// triple — including triples derived on one worker and shipped to another.
func TestProvenanceSurvivesCluster(t *testing.T) {
	for _, mode := range []Mode{Concurrent, Simulated} {
		for _, k := range []int{1, 3} {
			f := newChainFixture(t, 12, k)
			res, err := Run(Config{
				Engine:     reason.Forward{},
				Transport:  transport.NewMem(),
				Router:     ownerRouter{f.owner},
				Mode:       mode,
				Provenance: true,
			}, f.assignments(k))
			if err != nil {
				t.Fatalf("mode=%v k=%d: %v", mode, k, err)
			}
			if !res.Graph.Equal(f.closed) {
				t.Fatalf("mode=%v k=%d: closure mismatch", mode, k)
			}
			derived := provDerived(t, res.Graph, "tr")
			if derived == 0 {
				t.Fatalf("mode=%v k=%d: no derived triples carry lineage", mode, k)
			}
		}
	}
}

// TestProvenanceWithoutLineageTransport: a transport that cannot carry
// lineage (TCP) degrades shipped triples to asserted, but the run still
// closes and locally derived triples keep their records.
func TestProvenanceWithoutLineageTransport(t *testing.T) {
	f := newChainFixture(t, 10, 2)
	tr, err := transport.NewTCP(2, f.dict)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	res, err := Run(Config{
		Engine:     reason.Forward{},
		Transport:  tr,
		Router:     ownerRouter{f.owner},
		Mode:       Concurrent,
		Provenance: true,
	}, f.assignments(2))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Graph.Equal(f.closed) {
		t.Fatal("closure mismatch over lineage-free transport")
	}
	if provDerived(t, res.Graph, "tr") == 0 {
		t.Fatal("no lineage survived at all; local derivations should keep theirs")
	}
}

// TestProvenanceSurvivesRecovery kills a worker mid-run with provenance on:
// the adopter replays the victim's checkpoints (MemCheckpoints carries
// lineage), and the aggregated closure still explains its derivations.
func TestProvenanceSurvivesRecovery(t *testing.T) {
	f := newChainFixture(t, 12, 3)
	res, err := Run(Config{
		Engine:     reason.Forward{},
		Transport:  transport.NewMem(),
		Router:     ownerRouter{f.owner},
		Mode:       Concurrent,
		Provenance: true,
		Recovery:   &RecoveryConfig{},
		Inject: []*faultinject.Injector{
			nil,
			faultinject.New(faultinject.Config{CrashRound: 2}),
			nil,
		},
	}, f.assignments(3))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Graph.Equal(f.closed) {
		t.Fatalf("closure mismatch after recovery: got %d want %d", res.Graph.Len(), f.closed.Len())
	}
	if _, ok := res.Recovered[1]; !ok {
		t.Fatalf("worker 1 not recovered: %v", res.Recovered)
	}
	if provDerived(t, res.Graph, "tr") == 0 {
		t.Fatal("no derivations survived recovery with lineage")
	}
}

// TestDirCheckpointLineageRoundTrip pins the JSONL sidecar encoding.
func TestDirCheckpointLineageRoundTrip(t *testing.T) {
	dict := rdf.NewDict()
	a := dict.InternIRI("http://t/a")
	b := dict.InternIRI("http://t/b")
	c := dict.InternIRI("http://t/c")
	p := dict.InternIRI("http://t/p")
	st, err := NewDirCheckpoints(t.TempDir(), dict)
	if err != nil {
		t.Fatal(err)
	}
	in := []rdf.Lineage{{
		T:     rdf.Triple{S: a, P: p, O: c},
		Rule:  "tr",
		Round: 3,
		Prem:  []rdf.Triple{{S: a, P: p, O: b}, {S: b, P: p, O: c}},
	}}
	if err := st.SaveLineage(1, 3, in); err != nil {
		t.Fatal(err)
	}
	out, err := st.LoadLineage(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Rule != "tr" || out[0].Round != 3 ||
		out[0].T != in[0].T || len(out[0].Prem) != 2 ||
		out[0].Prem[0] != in[0].Prem[0] || out[0].Prem[1] != in[0].Prem[1] {
		t.Fatalf("round trip mismatch: %+v", out)
	}
	if other, err := st.LoadLineage(2); err != nil || len(other) != 0 {
		t.Fatalf("worker 2 lineage = %v, %v", other, err)
	}
}
