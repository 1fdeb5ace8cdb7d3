package core

import (
	"fmt"
	"math/rand"
	"testing"

	"powl/internal/datagen"
	"powl/internal/owlhorst"
	"powl/internal/rdf"
	"powl/internal/refclosure"
	"powl/internal/vocab"
)

// randomOntology draws a small OWL ontology from seed: 3–10 axioms over
// five classes and four properties — subClassOf, subPropertyOf, domain,
// range, equivalentClass, equivalentProperty, inverseOf, the four property
// characteristics, and hasValue, someValuesFrom and allValuesFrom
// restrictions tied into the class hierarchy — and 5–19 instance triples
// over eight individuals, among them owl:sameAs links and rdfs:label
// annotations. Labels, sameAs links and hasValue fillers put individuals
// into schema-namespace triples, which is what once left them unowned.
func randomOntology(seed int64) *datagen.Dataset {
	rng := rand.New(rand.NewSource(seed))
	dict := rdf.NewDict()
	g := rdf.NewGraph()
	iri := dict.InternIRI
	term := func(prefix string, n int) rdf.ID { return iri(fmt.Sprintf("http://o/%s%d", prefix, rng.Intn(n))) }
	class := func() rdf.ID { return term("C", 5) }
	prop := func() rdf.ID { return term("P", 4) }
	ind := func() rdf.ID { return term("I", 8) }
	add := func(s rdf.ID, p string, o rdf.ID) { g.Add(rdf.Triple{S: s, P: iri(p), O: o}) }

	restrictions := 0
	for n := 3 + rng.Intn(8); n > 0; n-- {
		switch rng.Intn(10) {
		case 0:
			add(class(), vocab.RDFSSubClassOf, class())
		case 1:
			add(prop(), vocab.RDFSSubPropertyOf, prop())
		case 2:
			add(prop(), vocab.RDFSDomain, class())
		case 3:
			add(prop(), vocab.RDFSRange, class())
		case 4:
			add(class(), vocab.OWLEquivalentClass, class())
		case 5:
			add(prop(), vocab.OWLEquivalentProperty, prop())
		case 6:
			add(prop(), vocab.OWLInverseOf, prop())
		case 7:
			kinds := []string{vocab.OWLTransitiveProperty, vocab.OWLSymmetricProperty,
				vocab.OWLFunctionalProperty, vocab.OWLInverseFunctionalProperty}
			add(prop(), vocab.RDFType, iri(kinds[rng.Intn(len(kinds))]))
		default:
			r := iri(fmt.Sprintf("http://o/R%d", restrictions))
			restrictions++
			add(r, vocab.RDFType, iri(vocab.OWLRestriction))
			add(r, vocab.OWLOnProperty, prop())
			switch rng.Intn(3) {
			case 0:
				add(r, vocab.OWLHasValue, ind())
			case 1:
				add(r, vocab.OWLSomeValuesFrom, class())
			default:
				add(r, vocab.OWLAllValuesFrom, class())
			}
			if rng.Intn(2) == 0 {
				add(r, vocab.RDFSSubClassOf, class())
			} else {
				add(class(), vocab.RDFSSubClassOf, r)
			}
		}
	}
	for n := 5 + rng.Intn(15); n > 0; n-- {
		switch k := rng.Intn(10); {
		case k < 5:
			g.Add(rdf.Triple{S: ind(), P: prop(), O: ind()})
		case k < 7:
			add(ind(), vocab.RDFType, class())
		case k < 8:
			add(ind(), vocab.OWLSameAs, ind())
		default:
			g.Add(rdf.Triple{S: ind(), P: iri(vocab.RDFSLabel), O: dict.Intern(rdf.Term{Kind: rdf.Literal, Value: "label"})})
		}
	}
	return &datagen.Dataset{Name: fmt.Sprintf("random-%d", seed), Dict: dict, Graph: g}
}

// TestDataPartitioningMatchesPDStar is the oracle over random ontologies:
// data partitioning under the graph and hash policies at k = 2, 3 and 4
// must close each one to exactly what the pD* meta rules derive from the
// whole graph, evaluated by refclosure, which shares no code with the
// engines. The result is the concatenation of the workers' home triples,
// each taken only from the worker its home names, so the equality also
// says that every closure triple is present on its home worker, and the
// length check that no triple is taken twice.
func TestDataPartitioningMatchesPDStar(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		ds := randomOntology(seed)
		want := refclosure.Closure(ds.Graph.Triples(), owlhorst.MetaRules(ds.Dict))
		for _, pol := range []PolicyKind{GraphPolicy, HashPolicy} {
			for _, k := range []int{2, 3, 4} {
				res, err := Materialize(ds, Config{Workers: k, Policy: pol, Seed: seed})
				if err != nil {
					t.Fatalf("seed %d %s k=%d: %v", seed, pol, k, err)
				}
				got := res.Graph.Triples()
				held := map[rdf.Triple]struct{}{}
				for _, tr := range got {
					held[tr] = struct{}{}
					if _, ok := want[tr]; !ok {
						t.Fatalf("seed %d %s k=%d: %v is not in the pD* closure", seed, pol, k, tr)
					}
				}
				if len(held) != len(want) || len(got) != len(want) {
					t.Fatalf("seed %d %s k=%d: %d triples (%d distinct), pD* closure has %d",
						seed, pol, k, len(got), len(held), len(want))
				}
			}
		}
	}
}

// TestLabelledTransitiveChain: a 41-node owl:TransitiveProperty chain where
// every other node carries an rdfs:label closes to the serial 841 triples
// at k=4 under both policies. The labels put those nodes into
// schema-namespace triples; left unowned, their chain triples were placed
// by one end only and the closure came back with about a tenth of its
// triples.
func TestLabelledTransitiveChain(t *testing.T) {
	dict := rdf.NewDict()
	g := rdf.NewGraph()
	p := dict.InternIRI("http://o/next")
	g.Add(rdf.Triple{S: p, P: dict.InternIRI(vocab.RDFType), O: dict.InternIRI(vocab.OWLTransitiveProperty)})
	label := dict.InternIRI(vocab.RDFSLabel)
	var prev rdf.ID
	for i := 0; i <= 40; i++ {
		n := dict.InternIRI(fmt.Sprintf("http://o/n%02d", i))
		if i > 0 {
			g.Add(rdf.Triple{S: prev, P: p, O: n})
		}
		if i%2 == 1 {
			g.Add(rdf.Triple{S: n, P: label, O: dict.Intern(rdf.Term{Kind: rdf.Literal, Value: fmt.Sprint(i)})})
		}
		prev = n
	}
	ds := &datagen.Dataset{Name: "labelled-chain", Dict: dict, Graph: g}
	serial, err := Materialize(ds, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Graph.Len() != 841 {
		t.Fatalf("serial closure has %d triples, want 841", serial.Graph.Len())
	}
	for _, pol := range []PolicyKind{GraphPolicy, HashPolicy} {
		res, err := Materialize(ds, Config{Workers: 4, Policy: pol, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Graph.Equal(serial.Graph) {
			t.Fatalf("%s k=4: closure has %d triples, serial %d; missing %v",
				pol, res.Graph.Len(), serial.Graph.Len(), len(serial.Graph.Diff(res.Graph)))
		}
	}
}
