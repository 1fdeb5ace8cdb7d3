// Custom ontology: author an OWL-Horst ontology from scratch (classes,
// restrictions, property characteristics), load instance data from inline
// N-Triples, inspect the rules the compiler generates, and verify specific
// expected inferences — the workflow of a user bringing their own schema.
package main

import (
	"fmt"
	"log"
	"strings"

	"powl/internal/core"
	"powl/internal/datagen"
	"powl/internal/ntriples"
	"powl/internal/owlhorst"
	"powl/internal/rdf"
)

const data = `
# --- ontology ---------------------------------------------------------------
<http://shop/ns#Customer> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://shop/ns#Agent> .
<http://shop/ns#PremiumCustomer> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://shop/ns#Customer> .
<http://shop/ns#purchased> <http://www.w3.org/2000/01/rdf-schema#domain> <http://shop/ns#Customer> .
<http://shop/ns#purchased> <http://www.w3.org/2000/01/rdf-schema#range> <http://shop/ns#Product> .
<http://shop/ns#bundledWith> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://www.w3.org/2002/07/owl#SymmetricProperty> .
<http://shop/ns#partOfOrder> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://www.w3.org/2002/07/owl#TransitiveProperty> .
# PremiumBuyer ≡ ∃purchased.LuxuryItem
<http://shop/ns#PremiumBuyerRestriction> <http://www.w3.org/2002/07/owl#onProperty> <http://shop/ns#purchased> .
<http://shop/ns#PremiumBuyerRestriction> <http://www.w3.org/2002/07/owl#someValuesFrom> <http://shop/ns#LuxuryItem> .
<http://shop/ns#PremiumBuyerRestriction> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://shop/ns#PremiumCustomer> .

# --- instance data -----------------------------------------------------------
<http://shop/data#alice> <http://shop/ns#purchased> <http://shop/data#watch> .
<http://shop/data#watch> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://shop/ns#LuxuryItem> .
<http://shop/data#watch> <http://shop/ns#bundledWith> <http://shop/data#strap> .
<http://shop/data#item1> <http://shop/ns#partOfOrder> <http://shop/data#box3> .
<http://shop/data#box3> <http://shop/ns#partOfOrder> <http://shop/data#order9> .
`

func main() {
	dict := rdf.NewDict()
	g := rdf.NewGraph()
	if _, err := ntriples.ReadGraph(strings.NewReader(data), dict, g); err != nil {
		log.Fatal(err)
	}

	// Peek at the compiler's output: the schema closure and the instance
	// rules (all single-join, §II of the paper).
	compiled := owlhorst.Compile(dict, g)
	fmt.Printf("ontology compiled into %d instance rules, e.g.:\n", len(compiled.InstanceRules))
	for i, r := range compiled.InstanceRules {
		if i >= 4 {
			break
		}
		fmt.Println("  ", r.Format(dict))
	}

	ds := &datagen.Dataset{Name: "shop", Dict: dict, Graph: g}
	res, err := core.Materialize(ds, core.Config{Workers: 2, Policy: core.HashPolicy})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nclosure: %d triples (%d inferred, schema closure included)\n\n", res.Graph.Len(), res.Inferred)

	must := func(s, p, o string) {
		st := rdf.Triple{
			S: dict.InternIRI(s),
			P: dict.InternIRI(p),
			O: dict.InternIRI(o),
		}
		status := "MISSING"
		if res.Graph.Has(st) {
			status = "ok"
		}
		fmt.Printf("  [%s] %s\n", status, dict.FormatTriple(st))
		if status == "MISSING" {
			log.Fatal("expected inference missing")
		}
	}
	fmt.Println("expected inferences:")
	must("http://shop/data#alice", "http://www.w3.org/1999/02/22-rdf-syntax-ns#type", "http://shop/ns#PremiumCustomer")
	must("http://shop/data#alice", "http://www.w3.org/1999/02/22-rdf-syntax-ns#type", "http://shop/ns#Agent")
	must("http://shop/data#strap", "http://shop/ns#bundledWith", "http://shop/data#watch")
	must("http://shop/data#item1", "http://shop/ns#partOfOrder", "http://shop/data#order9")
	must("http://shop/data#watch", "http://www.w3.org/1999/02/22-rdf-syntax-ns#type", "http://shop/ns#Product")
}
