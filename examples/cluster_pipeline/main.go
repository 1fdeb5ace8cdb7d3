// Cluster pipeline: the full production workflow on the paper's deployment
// substrate — prepare a shared work directory, run the nodes of a
// shared-filesystem cluster (in-process here; cmd/owlnode runs the same
// protocol as separate machines), merge the closures, and answer an
// inference-dependent SPARQL query over the result.
package main

import (
	"fmt"
	"log"
	"os"
	"sync"
	"time"

	"powl/internal/core"
	"powl/internal/datagen"
	"powl/internal/fscluster"
	"powl/internal/query"
)

func main() {
	const k = 4
	ds := datagen.LUBM(datagen.LUBMConfig{Universities: 3, Seed: 7})
	fmt.Printf("LUBM-3: %d triples, %d-node shared-filesystem cluster\n", ds.Graph.Len(), k)

	dir, err := os.MkdirTemp("", "powl-cluster-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Master: compile + partition as core.Materialize does, then write the
	// work directory.
	plan, err := core.NewPlan(ds, core.Config{Workers: k, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	if err := fscluster.Prepare(dir, ds.Dict, plan); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("prepared %s: IR=%.3f nodes/part=%v\n", dir, plan.Metrics.IR, plan.Metrics.NodesPerPart)

	// Nodes: one goroutine each here; on a cluster this is
	// `owlnode -dir <sharedfs> -id <i>` on each machine.
	start := time.Now()
	var wg sync.WaitGroup
	results := make([]*fscluster.NodeResult, k)
	errs := make([]error, k)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = fscluster.RunNode(fscluster.NodeConfig{
				ID: i, K: k, Dir: dir, Poll: time.Millisecond,
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			log.Fatalf("node %d: %v", i, err)
		}
	}
	for i, r := range results {
		fmt.Printf("  node %d: %d rounds, derived %d, sent %d\n", i, r.Rounds, r.Derived, r.Sent)
	}

	// Master again: merge the closure files.
	dict, merged, err := fscluster.MergeClosures(dir, k)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("merged closure: %d triples in %v\n\n", merged.Len(), time.Since(start).Round(time.Millisecond))

	// Query the materialized KB: department chairs and where they work —
	// Chair is only derivable via someValuesFrom + subclass reasoning.
	q := query.MustParse(`
PREFIX ub: <http://benchmark.powl/lubm#>
SELECT DISTINCT ?chair ?dept WHERE {
  ?chair a ub:Chair .
  ?chair ub:worksFor ?dept .
} LIMIT 6`, dict)
	res := q.Solve(merged)
	res.SortRows()
	fmt.Println("chairs in the materialized KB:")
	fmt.Print(res.Format(dict))
}
