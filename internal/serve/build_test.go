package serve

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"powl/internal/datagen"
	"powl/internal/ntriples"
	"powl/internal/owlhorst"
	"powl/internal/rdf"
	"powl/internal/reason"
)

// insertBuild is the construction Build used before it copied its base: the
// live instance triples inserted into a fresh graph, then the schema closure,
// with provenance switched on first when asked, closed on one thread. It is
// the reference Build is checked against.
func insertBuild(dict *rdf.Dict, base *rdf.Graph, prov bool) *rdf.Graph {
	compiled := owlhorst.Compile(dict, base)
	instance := owlhorst.SplitInstance(dict, base)
	g := rdf.NewGraphCap(2 * (len(instance) + compiled.Schema.Len()))
	if prov {
		g.EnableProv()
	}
	g.AddAll(instance)
	g.Union(compiled.Schema)
	reason.Forward{}.Materialize(g, compiled.InstanceRules)
	return g
}

// buildBases returns LUBM bases in the shapes Build must treat alike: as
// generated; schema and instance triples interleaved; with tombstones,
// including one on a schema triple; with derived marks; and recording
// provenance of its own.
func buildBases(t *testing.T) (*rdf.Dict, []namedBase) {
	t.Helper()
	ds := datagen.LUBM(datagen.LUBMConfig{Universities: 1, Seed: 5, DeptsPerUniv: 2})
	rng := rand.New(rand.NewSource(5))
	shuffled := func() *rdf.Graph {
		ts := ds.Graph.Triples()
		rng.Shuffle(len(ts), func(i, j int) { ts[i], ts[j] = ts[j], ts[i] })
		g := rdf.NewGraph()
		g.AddAll(ts)
		return g
	}
	schema := owlhorst.Compile(ds.Dict, ds.Graph).Schema
	pick := func(g *rdf.Graph, every int) []rdf.Triple {
		var out []rdf.Triple
		for i, tr := range g.TriplesSince(0) {
			if i%every == 3 {
				out = append(out, tr)
			}
		}
		return out
	}

	tomb := shuffled()
	del := pick(tomb, 9)
	for _, tr := range tomb.TriplesSince(0) {
		if schema.Has(tr) {
			del = append(del, tr) // one schema triple
			break
		}
	}
	tomb.Delete(del)
	tomb.AddAll(del[:len(del)/3]) // some come back at fresh offsets

	derived := shuffled()
	marked := pick(derived, 7)
	derived.Delete(marked)
	derived.AddDerivedAll(marked[:len(marked)/2], rdf.Derivation{})

	prov := shuffled()
	p := prov.EnableProv()
	moved := pick(prov, 11)
	prov.Delete(moved)
	rule := p.RuleID("fixture")
	for _, tr := range moved {
		prov.AddDerived(tr, rdf.Derivation{Rule: rule, Round: 1, Prem: [3]uint32{0, 1, rdf.NoPremise}})
	}

	return ds.Dict, []namedBase{
		{"generated", ds.Graph}, {"interleaved", shuffled()}, {"tombstones", tomb},
		{"derived-marks", derived}, {"base-records-provenance", prov},
	}
}

type namedBase struct {
	name string
	g    *rdf.Graph
}

func writeBytes(t *testing.T, dict *rdf.Dict, g *rdf.Graph) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := ntriples.WriteGraph(&b, dict, g); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// assertedSet returns g's live asserted triples, sorted.
func assertedSet(g *rdf.Graph) []rdf.Triple {
	ts := g.AssertedTriples()
	slices.SortFunc(ts, func(a, b rdf.Triple) int {
		switch {
		case a.Less(b):
			return -1
		case b.Less(a):
			return 1
		}
		return 0
	})
	return ts
}

// TestBuildMatchesInsertConstruction: the KB Build makes from a copy of its
// base equals, as a set, the one the insert construction makes, and its
// one-thread closure writes the same bytes — for every base shape, with
// provenance off and on. Every base triple reads as asserted either way, a
// KB built without Prov records no provenance even when its base does, and
// the base is left as it was.
func TestBuildMatchesInsertConstruction(t *testing.T) {
	dict, bases := buildBases(t)
	for _, nb := range bases {
		base := nb.g
		for _, prov := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/prov=%v", nb.name, prov), func(t *testing.T) {
				log, dead, baseProv := slices.Clone(base.TriplesSince(0)), base.Dead(), base.Prov()
				kb := Build(dict, base, BuildConfig{Prov: prov})
				want := insertBuild(dict, base, prov)
				if !kb.Graph.Equal(want) {
					t.Fatalf("KB has %d live triples, insert construction %d; %d missing, %d extra",
						kb.Graph.LiveLen(), want.LiveLen(), len(want.Diff(kb.Graph)), len(kb.Graph.Diff(want)))
				}
				if !bytes.Equal(writeBytes(t, dict, kb.Graph), writeBytes(t, dict, want)) {
					t.Fatal("WriteGraph output differs from the insert construction's")
				}
				if (kb.Graph.Prov() != nil) != prov {
					t.Fatalf("KB records provenance = %v, BuildConfig.Prov = %v", kb.Graph.Prov() != nil, prov)
				}
				if !slices.Equal(assertedSet(kb.Graph), assertedSet(want)) {
					t.Fatal("asserted triples differ from the insert construction's")
				}
				if prov {
					for _, tr := range assertedSet(kb.Graph) {
						if off, _ := kb.Graph.Offset(tr); kb.Graph.Prov().At(off).IsDerived() {
							t.Fatalf("asserted %v carries a derivation record", tr)
						}
					}
				}
				if !slices.Equal(base.TriplesSince(0), log) || base.Dead() != dead || base.Prov() != baseProv {
					t.Fatal("Build modified its base")
				}
			})
		}
	}
}
