// Command partmetrics computes the partition-quality metrics of the paper's
// §III (Table I) — bal, IR, OR and partitioning time — for an N-Triples
// dataset, a policy and a partition count.
//
// Usage:
//
//	partmetrics -in lubm10.nt -k 4 -policy graph
//	partmetrics -in lubm10.nt -k 8 -policy domain -domain-marker univ
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"powl/internal/core"
	"powl/internal/datagen"
	"powl/internal/rdf"
	"powl/internal/rio"
)

func main() {
	var (
		in     = flag.String("in", "", "input RDF file, .nt or .ttl (required)")
		k      = flag.Int("k", 4, "number of partitions")
		policy = flag.String("policy", "graph", "policy: graph, hash, domain")
		marker = flag.String("domain-marker", "univ", "locality marker for the domain policy")
		seed   = flag.Int64("seed", 42, "partitioner seed")
		withOR = flag.Bool("or", true, "also measure output replication (runs the reasoner per partition)")
	)
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "missing -in")
		flag.Usage()
		os.Exit(2)
	}

	dict := rdf.NewDict()
	g := rdf.NewGraph()
	if _, err := rio.LoadFile(*in, dict, g); err != nil {
		fatal(err)
	}
	ds := &datagen.Dataset{Name: *in, Dict: dict, Graph: g, DomainKey: datagen.MarkerKey(*marker)}
	p, err := core.NewPlan(ds, core.Config{Workers: *k, Policy: core.PolicyKind(*policy), Seed: *seed})
	if err != nil {
		fatal(err)
	}
	m := p.Metrics
	fmt.Printf("dataset: %s (%d triples)\n", *in, g.Len())
	fmt.Printf("policy=%s k=%d\n", *policy, *k)
	fmt.Printf("bal        = %.1f (stddev of per-partition node counts)\n", m.Bal)
	fmt.Printf("IR         = %.3f (excess node replication)\n", m.IR)
	fmt.Printf("part-time  = %v\n", p.PartitionTime.Round(time.Millisecond))
	fmt.Printf("nodes/part = %v\n", m.NodesPerPart)
	fmt.Printf("triples/part = %v\n", m.TriplesPerPart)
	if *withOR {
		fmt.Printf("OR         = %.3f (excess output replication)\n", p.PreExchangeOR())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
