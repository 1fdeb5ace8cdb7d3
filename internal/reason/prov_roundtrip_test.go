// Round-trip property test for the provenance layer: for every derived
// triple in a randomized LUBM closure, re-evaluating the recorded rule on
// the recorded premises must reproduce the triple.
//
// External test package: owlhorst imports reason, so importing owlhorst
// from package reason would cycle.
package reason_test

import (
	"fmt"
	"testing"

	"powl/internal/datagen"
	"powl/internal/owlhorst"
	"powl/internal/rdf"
	"powl/internal/reason"
	"powl/internal/rules"
)

// reverify re-evaluates lin's rule on lin's premises and checks the result
// is tr. Premises are bound to body atoms in order (the engines record them
// by body-atom index); body atoms beyond the three recordable premises must
// be ground under the resulting substitution and present in the closure —
// that covers the n-ary intersectionOf bodies, whose extra atoms share the
// one variable the first atoms bind.
func reverify(g *rdf.Graph, r rules.Rule, tr rdf.Triple, lin rdf.Lineage) error {
	if len(lin.Prem) > len(r.Body) {
		return fmt.Errorf("%d premises for %d body atoms", len(lin.Prem), len(r.Body))
	}
	want := len(r.Body)
	if want > 3 {
		want = 3
	}
	if len(lin.Prem) != want {
		return fmt.Errorf("recorded %d premises, want %d", len(lin.Prem), want)
	}
	bind := map[string]rdf.ID{}
	bindTerm := func(ts rules.TermSpec, id rdf.ID) bool {
		if !ts.IsVar {
			return ts.ID == id
		}
		if old, ok := bind[ts.Var]; ok {
			return old == id
		}
		bind[ts.Var] = id
		return true
	}
	for i, p := range lin.Prem {
		a := r.Body[i]
		if !bindTerm(a.S, p.S) || !bindTerm(a.P, p.P) || !bindTerm(a.O, p.O) {
			return fmt.Errorf("premise %d %v does not match body atom %d", i, p, i)
		}
	}
	resolve := func(ts rules.TermSpec) (rdf.ID, bool) {
		if !ts.IsVar {
			return ts.ID, true
		}
		id, ok := bind[ts.Var]
		return id, ok
	}
	for i := len(lin.Prem); i < len(r.Body); i++ {
		a := r.Body[i]
		s, ok1 := resolve(a.S)
		p, ok2 := resolve(a.P)
		o, ok3 := resolve(a.O)
		if !ok1 || !ok2 || !ok3 {
			return fmt.Errorf("body atom %d not ground after binding premises", i)
		}
		if !g.Has(rdf.Triple{S: s, P: p, O: o}) {
			return fmt.Errorf("body atom %d instantiation not in closure", i)
		}
	}
	for _, h := range r.Head {
		s, ok1 := resolve(h.S)
		p, ok2 := resolve(h.P)
		o, ok3 := resolve(h.O)
		if ok1 && ok2 && ok3 && (rdf.Triple{S: s, P: p, O: o}) == tr {
			return nil
		}
	}
	return fmt.Errorf("no head instantiation reproduces the triple")
}

// verifyAllDerived checks every derived triple in g round-trips, returning
// the derived count.
func verifyAllDerived(t *testing.T, g *rdf.Graph, rs []rules.Rule) int {
	t.Helper()
	byName := map[string][]rules.Rule{}
	for _, r := range rs {
		byName[r.Name] = append(byName[r.Name], r)
	}
	prov := g.Prov()
	derived := 0
	for off, tr := range g.Triples() {
		d := prov.At(uint32(off))
		if !d.IsDerived() {
			continue
		}
		derived++
		lin, ok := g.LineageOf(tr)
		if !ok {
			t.Fatalf("derived triple at offset %d has no lineage", off)
		}
		cands := byName[lin.Rule]
		if len(cands) == 0 {
			t.Fatalf("offset %d: recorded rule %q not in rule set", off, lin.Rule)
		}
		var lastErr error
		okAny := false
		for _, r := range cands {
			if err := reverify(g, r, tr, lin); err == nil {
				okAny = true
				break
			} else {
				lastErr = err
			}
		}
		if !okAny {
			t.Fatalf("offset %d (rule %q, round %d): %v", off, lin.Rule, lin.Round, lastErr)
		}
	}
	return derived
}

// provClosure builds the LUBM KB the way serve.Build does, with
// provenance on, and materializes with the forward engine.
func provClosure(seed int64) (*rdf.Graph, []rules.Rule) {
	ds := datagen.LUBM(datagen.LUBMConfig{Universities: 1, Seed: seed, DeptsPerUniv: 2})
	compiled := owlhorst.Compile(ds.Dict, ds.Graph)
	instance := owlhorst.SplitInstance(ds.Dict, ds.Graph)
	g := rdf.NewGraph()
	g.EnableProv()
	g.AddAll(instance)
	g.Union(compiled.Schema)
	reason.Forward{}.Materialize(g, compiled.InstanceRules)
	return g, compiled.InstanceRules
}

func TestProvenanceRoundTripLUBM(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			g, rs := provClosure(seed)
			derived := verifyAllDerived(t, g, rs)
			if derived == 0 {
				t.Fatal("closure produced no derived triples; test is vacuous")
			}
			t.Logf("verified %d derived triples of %d total", derived, g.Len())
		})
	}
}

// TestProvenanceRoundTripRete runs the same property over the rete engine,
// whose premises come from join tokens instead of the semi-naive scratch.
func TestProvenanceRoundTripRete(t *testing.T) {
	ds := datagen.LUBM(datagen.LUBMConfig{Universities: 1, Seed: 7, DeptsPerUniv: 2})
	compiled := owlhorst.Compile(ds.Dict, ds.Graph)
	instance := owlhorst.SplitInstance(ds.Dict, ds.Graph)
	g := rdf.NewGraph()
	g.EnableProv()
	g.AddAll(instance)
	g.Union(compiled.Schema)
	reason.Rete{}.Materialize(g, compiled.InstanceRules)
	derived := verifyAllDerived(t, g, compiled.InstanceRules)
	if derived == 0 {
		t.Fatal("rete closure produced no derived triples")
	}
	t.Logf("verified %d derived triples of %d total", derived, g.Len())
}

// TestProvenanceForwardVsIncremental feeds half the instance triples as
// seeds through the incremental path and requires the same closure as the
// one-shot forward run, with every derived triple's lineage round-tripping
// in both.
func TestProvenanceForwardVsIncremental(t *testing.T) {
	const seed = 7
	full, rs := provClosure(seed)

	ds := datagen.LUBM(datagen.LUBMConfig{Universities: 1, Seed: seed, DeptsPerUniv: 2})
	compiled := owlhorst.Compile(ds.Dict, ds.Graph)
	instance := owlhorst.SplitInstance(ds.Dict, ds.Graph)
	half := len(instance) / 2

	g := rdf.NewGraph()
	g.EnableProv()
	g.AddAll(instance[:half])
	g.Union(compiled.Schema)
	reason.Forward{}.Materialize(g, compiled.InstanceRules)
	// Second half arrives as an update, the way serve's writer applies
	// inserts: assert the seeds, then close incrementally.
	seeds := instance[half:]
	g.AddAll(seeds)
	reason.Forward{}.MaterializeFrom(g, compiled.InstanceRules, seeds)

	if g.Len() != full.Len() {
		t.Fatalf("incremental closure has %d triples, forward has %d", g.Len(), full.Len())
	}
	for _, tr := range full.Triples() {
		if !g.Has(tr) {
			t.Fatalf("incremental closure missing %v", tr)
		}
	}
	derived := verifyAllDerived(t, g, rs)
	if derived == 0 {
		t.Fatal("incremental closure recorded no derivations")
	}
	t.Logf("verified %d derived triples (incremental) vs forward closure of %d", derived, full.Len())
}
