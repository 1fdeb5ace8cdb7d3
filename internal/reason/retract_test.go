// Deletion tests: Retractor unit coverage on hand-built rule sets plus the
// churn property test — random insert/delete interleavings over LUBM and
// UOBM whose result must match a from-scratch materialization of the
// surviving asserted triples after every batch, with provenance on and off.
//
// External test package for the same reason as prov_roundtrip_test.go:
// owlhorst imports reason.
package reason_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"powl/internal/datagen"
	"powl/internal/owlhorst"
	"powl/internal/rdf"
	"powl/internal/reason"
	"powl/internal/rules"
)

const (
	pLink = rdf.ID(1)
	pNear = rdf.ID(2)
	pAlt  = rdf.ID(3)
	nA    = rdf.ID(10)
	nB    = rdf.ID(11)
	nC    = rdf.ID(12)
)

// chainRules: link/link → near, plus alt → near (a second, independent way
// to derive the same head, for the fast-path tests).
func chainRules() []rules.Rule {
	return []rules.Rule{
		{
			Name: "chain",
			Body: []rules.Atom{
				{S: rules.Var("x"), P: rules.Const(pLink), O: rules.Var("y")},
				{S: rules.Var("y"), P: rules.Const(pLink), O: rules.Var("z")},
			},
			Head: []rules.Atom{{S: rules.Var("x"), P: rules.Const(pNear), O: rules.Var("z")}},
		},
		{
			Name: "alt-near",
			Body: []rules.Atom{
				{S: rules.Var("x"), P: rules.Const(pAlt), O: rules.Var("y")},
			},
			Head: []rules.Atom{{S: rules.Var("x"), P: rules.Const(pNear), O: rules.Var("y")}},
		},
	}
}

// TestCompileRejectsRepeatedRuleName: provenance records and DRed name a
// rule by its name, so two rules with one name must not compile. With
// chainRules' one-atom alt-near renamed to chain, DRed took the one-atom
// body length for both and never indexed the two-atom rule's second
// premise: retracting (B link C) left (A near C) live.
func TestCompileRejectsRepeatedRuleName(t *testing.T) {
	rs := chainRules()
	rs[1].Name = rs[0].Name
	if _, err := reason.Compile(rs); err == nil {
		t.Fatal("Compile accepted two rules named chain")
	}
	if err := reason.ValidateRules(rs); err == nil {
		t.Error("ValidateRules accepted two rules named chain")
	}
	g := rdf.NewGraph()
	g.Add(rdf.Triple{S: nA, P: pLink, O: nB})
	if _, err := (reason.Forward{}).MaterializeCtx(context.Background(), g, rs); err == nil {
		t.Error("Forward.MaterializeCtx accepted two rules named chain")
	}
}

// oracleClosure materializes the asserted triples from scratch — the
// reference every retraction result is compared against.
func oracleClosure(asserted []rdf.Triple, rs []rules.Rule) *rdf.Graph {
	w := rdf.NewGraph()
	w.AddAll(asserted)
	reason.Forward{}.Materialize(w, rs)
	return w
}

func requireEqual(t *testing.T, g, want *rdf.Graph, when string) {
	t.Helper()
	if !g.Equal(want) {
		t.Fatalf("%s: graph diverges from oracle (%d vs %d live): missing=%v extra=%v",
			when, g.Len()-g.Dead(), want.Len()-want.Dead(), want.Diff(g), g.Diff(want))
	}
}

func TestRetractBaseTriple(t *testing.T) {
	for _, provOn := range []bool{true, false} {
		t.Run(fmt.Sprintf("prov=%v", provOn), func(t *testing.T) {
			rs := chainRules()
			g := rdf.NewGraph()
			if provOn {
				g.EnableProv()
			}
			ab := rdf.Triple{S: nA, P: pLink, O: nB}
			bc := rdf.Triple{S: nB, P: pLink, O: nC}
			g.Add(ab)
			g.Add(bc)
			reason.Forward{}.Materialize(g, rs)
			if !g.Has(rdf.Triple{S: nA, P: pNear, O: nC}) {
				t.Fatal("closure missing derived near triple")
			}

			ret := reason.NewRetractor(rs)
			st := ret.Retract(g, []rdf.Triple{ab})
			if st.Requested != 1 {
				t.Fatalf("Requested = %d, want 1", st.Requested)
			}
			if g.Has(ab) || g.Has(rdf.Triple{S: nA, P: pNear, O: nC}) {
				t.Fatal("deleted triple or its consequence still visible")
			}
			if !g.Has(bc) {
				t.Fatal("unrelated asserted triple was lost")
			}
			requireEqual(t, g, oracleClosure([]rdf.Triple{bc}, rs), "after retract")

			// Deleting an absent triple is a no-op.
			if st := ret.Retract(g, []rdf.Triple{ab}); st.Requested != 0 || st.Overdeleted != 0 {
				t.Fatalf("retract of absent triple did work: %+v", st)
			}
		})
	}
}

func TestRetractDerivedStillDerivable(t *testing.T) {
	rs := chainRules()
	g := rdf.NewGraph()
	g.EnableProv()
	ab := rdf.Triple{S: nA, P: pLink, O: nB}
	bc := rdf.Triple{S: nB, P: pLink, O: nC}
	g.Add(ab)
	g.Add(bc)
	reason.Forward{}.Materialize(g, rs)
	near := rdf.Triple{S: nA, P: pNear, O: nC}

	// Deleting an inference whose premises survive must restore it: the
	// graph stays the closure of the asserted set.
	ret := reason.NewRetractor(rs)
	st := ret.Retract(g, []rdf.Triple{near})
	if !g.Has(near) {
		t.Fatal("still-derivable triple was not restored")
	}
	if st.Reinstated+st.Rederived == 0 {
		t.Fatalf("no restoration recorded: %+v", st)
	}
	if lin, ok := g.LineageOf(near); !ok || lin.Rule != "chain" {
		t.Fatalf("restored triple lineage = %+v, ok=%v; want chain", lin, ok)
	}
	requireEqual(t, g, oracleClosure([]rdf.Triple{ab, bc}, rs), "after retract of inference")
}

func TestRetractAltFastPath(t *testing.T) {
	rs := chainRules()
	g := rdf.NewGraph()
	g.EnableProv()
	ab := rdf.Triple{S: nA, P: pLink, O: nB}
	bc := rdf.Triple{S: nB, P: pLink, O: nC}
	alt := rdf.Triple{S: nA, P: pAlt, O: nC}
	g.Add(ab)
	g.Add(bc)
	g.Add(alt)
	reason.Forward{}.Materialize(g, rs)
	near := rdf.Triple{S: nA, P: pNear, O: nC}
	off, ok := g.Offset(near)
	if !ok {
		t.Fatal("closure missing near triple")
	}
	if _, ok := g.Prov().AltAt(off); !ok {
		t.Fatal("duplicate firing did not record an alternate derivation")
	}

	// Deleting one support leaves the other; the alternate record (whichever
	// rule lost the race for the primary record) lets Retract reinstate
	// without a join when its premises survive.
	ret := reason.NewRetractor(rs)
	st := ret.Retract(g, []rdf.Triple{ab})
	if !g.Has(near) {
		t.Fatal("doubly-derived triple lost with one support remaining")
	}
	if st.Reinstated+st.Rederived == 0 {
		t.Fatalf("no restoration recorded: %+v", st)
	}
	requireEqual(t, g, oracleClosure([]rdf.Triple{bc, alt}, rs), "after retract of one support")

	// Now the second support: the triple must finally fall.
	ret.Retract(g, []rdf.Triple{alt})
	if g.Has(near) {
		t.Fatal("triple survived deletion of its last support")
	}
	requireEqual(t, g, oracleClosure([]rdf.Triple{bc}, rs), "after retract of last support")
}

// verifyLiveDerived checks every live derived triple's lineage still
// round-trips after retractions (the tombstone-aware sibling of
// verifyAllDerived, which indexes records positionally and so only works on
// tombstone-free graphs).
func verifyLiveDerived(t *testing.T, g *rdf.Graph, rs []rules.Rule) int {
	t.Helper()
	byName := map[string][]rules.Rule{}
	for _, r := range rs {
		byName[r.Name] = append(byName[r.Name], r)
	}
	derived := 0
	for _, tr := range g.Triples() {
		lin, ok := g.LineageOf(tr)
		if !ok {
			continue
		}
		derived++
		var lastErr error
		okAny := false
		for _, r := range byName[lin.Rule] {
			if err := reverify(g, r, tr, lin); err == nil {
				okAny = true
				break
			} else {
				lastErr = err
			}
		}
		if !okAny {
			t.Fatalf("triple %v (rule %q): %v", tr, lin.Rule, lastErr)
		}
	}
	return derived
}

// churnDataset abstracts the two benchmark generators for the property test.
type churnDataset struct {
	name string
	gen  func(seed int64) *datagen.Dataset
}

var churnDatasets = []churnDataset{
	{"lubm", func(seed int64) *datagen.Dataset {
		return datagen.LUBM(datagen.LUBMConfig{Universities: 1, Seed: seed, DeptsPerUniv: 2})
	}},
	{"uobm", func(seed int64) *datagen.Dataset {
		return datagen.UOBM(datagen.UOBMConfig{Universities: 1, Seed: seed, DeptsPerUniv: 1})
	}},
}

// TestRetractChurnProperty is the deletion property test: random
// insert/delete interleavings, including re-inserts of deleted triples and
// deletions of derived triples, checked against a from-scratch
// materialization of the surviving asserted set after every batch.
func TestRetractChurnProperty(t *testing.T) {
	for _, ds := range churnDatasets {
		for _, provOn := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/prov=%v", ds.name, provOn), func(t *testing.T) {
				runChurnProperty(t, ds.gen(7), provOn, 7)
			})
		}
	}
}

func runChurnProperty(t *testing.T, ds *datagen.Dataset, provOn bool, seed int64) {
	compiled := owlhorst.Compile(ds.Dict, ds.Graph)
	instance := owlhorst.SplitInstance(ds.Dict, ds.Graph)
	rs := compiled.InstanceRules
	rng := rand.New(rand.NewSource(seed))

	g := rdf.NewGraph()
	if provOn {
		g.EnableProv()
	}
	g.Union(compiled.Schema)
	schemaAsserted := compiled.Schema.Triples()

	// The test's own model of the asserted instance set.
	assertedSet := map[rdf.Triple]bool{}
	var asserted []rdf.Triple
	insert := func(ts []rdf.Triple) {
		var fresh []rdf.Triple
		for _, tr := range ts {
			if !assertedSet[tr] {
				assertedSet[tr] = true
				asserted = append(asserted, tr)
				fresh = append(fresh, tr)
			}
		}
		g.AddAll(fresh)
		reason.Forward{}.MaterializeFrom(g, rs, fresh)
	}

	half := len(instance) / 2
	g.AddAll(instance[:half])
	for _, tr := range instance[:half] {
		if !assertedSet[tr] {
			assertedSet[tr] = true
			asserted = append(asserted, tr)
		}
	}
	reason.Forward{}.Materialize(g, rs)
	pending := instance[half:]

	oracle := func() *rdf.Graph {
		w := rdf.NewGraph()
		w.AddAll(schemaAsserted)
		w.AddAll(asserted)
		reason.Forward{}.Materialize(w, rs)
		return w
	}
	requireEqual(t, g, oracle(), "initial closure")

	ret := reason.NewRetractor(rs)
	var deletedPool []rdf.Triple
	retracted := 0
	const steps = 8
	for step := 0; step < steps; step++ {
		n := 4 + rng.Intn(8)
		switch op := rng.Intn(4); {
		case op == 0 && len(pending) > 0: // insert fresh
			if n > len(pending) {
				n = len(pending)
			}
			insert(pending[:n])
			pending = pending[n:]
		case op == 1 && len(deletedPool) > 0: // re-insert previously deleted
			if n > len(deletedPool) {
				n = len(deletedPool)
			}
			insert(deletedPool[:n])
			deletedPool = deletedPool[n:]
		default: // delete: asserted triples, plus the odd derived one
			var batch []rdf.Triple
			for i := 0; i < n && len(asserted) > 0; i++ {
				j := rng.Intn(len(asserted))
				tr := asserted[j]
				asserted[j] = asserted[len(asserted)-1]
				asserted = asserted[:len(asserted)-1]
				delete(assertedSet, tr)
				deletedPool = append(deletedPool, tr)
				batch = append(batch, tr)
			}
			if live := g.Triples(); len(live) > 0 {
				// A derived (or schema-independent) victim: deleting an
				// inference must leave the closure unchanged, so the model is
				// untouched. Skip schema triples — the compiled rules bake the
				// schema in, so the oracle always reasserts it.
				tr := live[rng.Intn(len(live))]
				if !assertedSet[tr] && !compiled.Schema.Has(tr) {
					batch = append(batch, tr)
				}
			}
			st := ret.Retract(g, batch)
			retracted += st.Requested
		}
		requireEqual(t, g, oracle(), fmt.Sprintf("step %d", step))
	}
	if retracted == 0 {
		t.Fatal("interleaving performed no retractions; test is vacuous")
	}
	if provOn {
		if d := verifyLiveDerived(t, g, rs); d == 0 {
			t.Fatal("no derived triples survived to verify")
		}
	}
	t.Logf("%d steps, %d retracted, final live=%d dead=%d",
		steps, retracted, g.LiveLen(), g.Dead())
}
