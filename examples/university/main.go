// University: the workload from the paper's evaluation — generate a
// LUBM-style multi-university knowledge base, compare the three data
// partitioning policies, and materialize with the best one, reporting the
// speedup over a serial run. This is Figure 1/Figure 5 in miniature.
package main

import (
	"fmt"
	"log"
	"time"

	"powl/internal/core"
	"powl/internal/datagen"
)

func main() {
	ds := datagen.LUBM(datagen.LUBMConfig{Universities: 4, Seed: 7})
	fmt.Printf("LUBM-4: %d triples\n", ds.Graph.Len())

	// The serial baseline is the same run at one worker (Workers defaults
	// to 1).
	cfg := core.Config{
		Strategy:  core.DataPartitioning,
		Engine:    core.HybridEngine,
		Transport: core.MemTransport,
		Simulate:  true,
		Seed:      42,
	}
	serial, err := core.Materialize(ds, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("serial hybrid reasoner (one worker): closure %d triples in %v\n\n",
		serial.Graph.Len(), serial.Elapsed.Round(time.Millisecond))

	fmt.Println("policy comparison at k=4 (Simulate reconstructs parallel time on one core):")
	for _, pol := range []core.PolicyKind{core.GraphPolicy, core.DomainPolicy, core.HashPolicy} {
		cfg.Workers, cfg.Policy = 4, pol
		res, err := core.Materialize(ds, cfg)
		if err != nil {
			log.Fatal(err)
		}
		if !res.Graph.Equal(serial.Graph) {
			log.Fatalf("%s: parallel closure differs from serial closure", pol)
		}
		fmt.Printf("  %-7s speedup %5.2fx  IR=%.3f OR=%.3f bal=%.1f partition=%v\n",
			pol,
			serial.Elapsed.Seconds()/res.Elapsed.Seconds(),
			res.Metrics.IR, res.OR, res.Metrics.Bal,
			res.PartitionTime.Round(time.Millisecond))
	}

	fmt.Println("\nscaling with the graph policy:")
	for _, k := range []int{2, 4, 8} {
		cfg.Workers, cfg.Policy = k, core.GraphPolicy
		res, err := core.Materialize(ds, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  k=%d: %v (%.2fx, %d rounds)\n",
			k, res.Elapsed.Round(time.Millisecond),
			serial.Elapsed.Seconds()/res.Elapsed.Seconds(), res.Rounds)
	}
}
