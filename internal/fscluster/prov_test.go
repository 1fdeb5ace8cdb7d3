package fscluster

import (
	"errors"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"powl/internal/core"
	"powl/internal/datagen"
	"powl/internal/faultinject"
	"powl/internal/rdf"
	"powl/internal/reason"
)

// countExplainable walks g's triples and checks every one that carries a
// lineage record explains: non-empty rule attribution, recorded premises
// present in g, Explain yields a derived root. A record shipped from a peer
// may legitimately have no premises — the router never sent the receiver the
// inputs, only the conclusion — so the second return counts records whose
// premise chain is intact.
func countExplainable(t *testing.T, g *rdf.Graph) (derived, withPrem int) {
	t.Helper()
	if g.Prov() == nil {
		t.Fatal("node graph has no provenance side-column")
	}
	for _, tr := range g.Triples() {
		lin, ok := g.LineageOf(tr)
		if !ok {
			continue
		}
		derived++
		if lin.Rule == "" {
			t.Fatalf("derived %v has empty rule attribution", tr)
		}
		if len(lin.Prem) > 0 {
			withPrem++
		}
		for _, p := range lin.Prem {
			if !g.Has(p) {
				t.Fatalf("premise %v of %v missing from node graph", p, tr)
			}
		}
		if n, ok := g.Explain(tr, 0); !ok || !n.IsDerived() {
			t.Fatalf("Explain failed for derived %v", tr)
		}
	}
	return derived, withPrem
}

// TestNodeProvenance runs a partitioned chain dataset with provenance on:
// the closure must still match the serial fixpoint, every node's graph must
// explain its derivations — including tuples derived on a peer and shipped
// over the message files — and the lineage sidecars must actually exist on
// disk (the protocol is the files, not shared memory).
func TestNodeProvenance(t *testing.T) {
	ds := datagen.MDC(datagen.MDCConfig{Fields: 4, Seed: 7})
	serial, err := core.Materialize(ds, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	const k = 3
	dir := t.TempDir()
	prepare(t, dir, ds, k)
	results := make([]*NodeResult, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = RunNode(NodeConfig{
				ID: i, K: k, Dir: dir, Engine: reason.Forward{},
				Poll: time.Millisecond, Timeout: 2 * time.Minute,
				Provenance: true,
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	_, merged, err := MergeClosures(dir, k)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Len() != serial.Graph.Len() {
		t.Fatalf("closure %d != serial %d with provenance on", merged.Len(), serial.Graph.Len())
	}
	derived, withPrem := 0, 0
	for _, r := range results {
		d, wp := countExplainable(t, r.Closure)
		derived, withPrem = derived+d, withPrem+wp
	}
	if derived == 0 {
		t.Fatal("no node holds an explainable derivation")
	}
	if withPrem == 0 {
		t.Fatal("no derivation kept an intact premise chain")
	}
	sidecars, err := filepath.Glob(filepath.Join(Layout{Dir: dir}.MsgDir(), "r*", "*.lin.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(sidecars) == 0 {
		t.Fatal("no lineage sidecar files written")
	}
}

// TestProvenanceSurvivesAdoption crashes a worker with provenance on: the
// adopter replays the victim's checkpoint and message sidecars, so its merged
// graph keeps explainable lineage and the closure still matches serial.
func TestProvenanceSurvivesAdoption(t *testing.T) {
	ds := datagen.MDC(datagen.MDCConfig{Fields: 4, Seed: 7})
	serial, err := core.Materialize(ds, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	const k, victim = 3, 2
	dir := t.TempDir()
	prepare(t, dir, ds, k)
	injectors := make([]*faultinject.Injector, k)
	injectors[victim] = faultinject.New(faultinject.Config{CrashRound: 2})
	results := make([]*NodeResult, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = RunNode(NodeConfig{
				ID: i, K: k, Dir: dir, Engine: reason.Forward{},
				Poll: time.Millisecond, Timeout: time.Minute,
				Provenance: true, Inject: injectors[i],
			})
		}(i)
	}
	sup, supErr := Supervise(t.Context(), SuperviseConfig{
		Dir: dir, K: k,
		RoundDeadline: 500 * time.Millisecond,
		Timeout:       time.Minute,
	})
	wg.Wait()
	if supErr != nil {
		t.Fatalf("supervisor: %v", supErr)
	}
	if !errors.Is(errs[victim], ErrCrashed) {
		t.Fatalf("victim error = %v, want ErrCrashed", errs[victim])
	}
	adopter, ok := sup.Dead[victim]
	if !ok {
		t.Fatal("supervisor never declared the victim dead")
	}
	_, merged, err := MergeClosures(dir, k)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Len() != serial.Graph.Len() {
		t.Fatalf("recovered closure %d != serial %d", merged.Len(), serial.Graph.Len())
	}
	if d, _ := countExplainable(t, results[adopter].Closure); d == 0 {
		t.Fatal("adopter holds no explainable derivations after taking over the victim")
	}
}
