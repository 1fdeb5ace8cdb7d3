// Quickstart: build a tiny family ontology, materialize it in parallel with
// the data-partitioning strategy, and print the inferred triples.
package main

import (
	"fmt"
	"log"

	"powl/internal/core"
	"powl/internal/datagen"
	"powl/internal/rdf"
	"powl/internal/vocab"
)

func main() {
	dict := rdf.NewDict()
	g := rdf.NewGraph()
	add := func(s, p, o rdf.ID) { g.Add(rdf.Triple{S: s, P: p, O: o}) }
	iri := func(s string) rdf.ID { return dict.InternIRI("http://example.org/" + s) }

	// Ontology: ancestorOf is transitive, parentOf is a sub-property of
	// ancestorOf, and Person is the domain of parentOf.
	typ := dict.InternIRI(vocab.RDFType)
	add(iri("ancestorOf"), typ, dict.InternIRI(vocab.OWLTransitiveProperty))
	add(iri("parentOf"), dict.InternIRI(vocab.RDFSSubPropertyOf), iri("ancestorOf"))
	add(iri("parentOf"), dict.InternIRI(vocab.RDFSDomain), iri("Person"))

	// Data: three generations.
	add(iri("ada"), iri("parentOf"), iri("bob"))
	add(iri("bob"), iri("parentOf"), iri("cyn"))
	add(iri("cyn"), iri("parentOf"), iri("dee"))

	ds := &datagen.Dataset{Name: "family", Dict: dict, Graph: g}
	res, err := core.Materialize(ds, core.Config{
		Workers:  2,
		Strategy: core.DataPartitioning,
		Policy:   core.HashPolicy, // tiny data: any policy works
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("base %d triples -> closure %d triples (%d inferred, schema closure included; %d rounds)\n\n",
		g.Len(), res.Graph.Len(), res.Inferred, res.Rounds)
	for _, t := range res.Graph.SortedTriples() {
		if !g.Has(t) {
			fmt.Println("inferred:", dict.FormatTriple(t))
		}
	}
}
