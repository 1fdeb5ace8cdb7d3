// Oilfield: the MDC-style sensor workload (the paper's proprietary Chevron
// dataset, §VI). Deep transitive partOf chains are closed in parallel; the
// example then demonstrates the rule-partitioning strategy and queries the
// materialized KB for every asset transitively contained in one field.
package main

import (
	"fmt"
	"log"
	"time"

	"powl/internal/core"
	"powl/internal/datagen"
	"powl/internal/rdf"
)

func main() {
	ds := datagen.MDC(datagen.MDCConfig{Fields: 8, Seed: 7})
	fmt.Printf("MDC-8: %d triples across 8 oilfields\n", ds.Graph.Len())

	// The serial baseline is the one-worker run of the same engine and mode.
	serial, err := core.Materialize(ds, core.Config{Engine: core.HybridEngine, Simulate: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("serial closure (one worker): %d triples in %v\n",
		serial.Graph.Len(), serial.Elapsed.Round(time.Millisecond))

	// Data partitioning: fields are near-disconnected, so this is the
	// strategy's best case.
	data, err := core.Materialize(ds, core.Config{
		Workers: 8, Strategy: core.DataPartitioning, Policy: core.DomainPolicy,
		Engine: core.HybridEngine, Simulate: true, Seed: 42,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("data partitioning, k=8 (domain policy): %v (%.2fx, IR=%.3f)\n",
		data.Elapsed.Round(time.Millisecond),
		serial.Elapsed.Seconds()/data.Elapsed.Seconds(), data.Metrics.IR)

	// Rule partitioning: the full data everywhere, rules split by their
	// dependency graph (§III-B).
	rule, err := core.Materialize(ds, core.Config{
		Workers: 3, Strategy: core.RulePartitioning,
		Engine: core.HybridEngine, Simulate: true, Seed: 42,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rule partitioning, k=3: %v (%.2fx, dependency cut=%d)\n",
		rule.Elapsed.Round(time.Millisecond),
		serial.Elapsed.Seconds()/rule.Elapsed.Seconds(), rule.RuleCut)

	if !data.Graph.Equal(serial.Graph) || !rule.Graph.Equal(serial.Graph) {
		log.Fatal("parallel closures differ from serial closure")
	}

	// Query the materialized KB: everything transitively part of field0.
	partOf, _ := ds.Dict.Lookup(rdf.Term{Kind: rdf.IRI, Value: "http://benchmark.powl/mdc#partOf"})
	field0, _ := ds.Dict.Lookup(rdf.Term{Kind: rdf.IRI, Value: "http://benchmark.powl/mdc#field0"})
	contained := data.Graph.Match(rdf.Wildcard, partOf, field0)
	direct := ds.Graph.Match(rdf.Wildcard, partOf, field0)
	fmt.Printf("\nassets in field0: %d direct, %d after transitive closure\n",
		len(direct), len(contained))
	for i, t := range contained {
		if i >= 5 {
			fmt.Printf("  … and %d more\n", len(contained)-5)
			break
		}
		fmt.Printf("  %s\n", ds.Dict.Term(t.S))
	}
}
