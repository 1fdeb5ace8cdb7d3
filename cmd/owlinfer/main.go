// Command owlinfer materializes an OWL-Horst knowledge base in parallel: it
// loads an N-Triples file (ontology + instance data mixed), compiles the
// ontology into instance rules, partitions the workload with the selected
// strategy, runs the round-based parallel reasoner, and writes the closure.
//
// Usage:
//
//	owlinfer -in data.nt -workers 4 -o closure.nt
//	owlinfer -in data.nt -workers 8 -strategy data -policy domain -domain-marker univ
//	owlinfer -in data.nt -workers 2 -strategy rule -engine forward -transport tcp
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"powl/internal/core"
	"powl/internal/datagen"
	"powl/internal/ntriples"
	"powl/internal/rdf"
	"powl/internal/rio"
	"powl/internal/rules"
)

func main() {
	var (
		in        = flag.String("in", "", "input RDF file, .nt or .ttl (required)")
		out       = flag.String("o", "", "output N-Triples file for the closure ('' = no output, stats only)")
		workers   = flag.Int("workers", 4, "number of partitions / workers")
		strategy  = flag.String("strategy", "data", "partitioning strategy: data, rule, hybrid")
		policy    = flag.String("policy", "graph", "data partitioning policy: graph, hash, domain")
		engine    = flag.String("engine", "forward", "rule engine: forward, rete, hybrid, hybrid-shared")
		transport = flag.String("transport", "mem", "transport: mem, file, tcp")
		marker    = flag.String("domain-marker", "", "locality marker for the domain policy, e.g. 'univ' (matches marker+digits in IRIs and literals)")
		simulate  = flag.Bool("simulate", false, "sequential execution with reconstructed parallel time (for speedup measurements on few cores)")
		seed      = flag.Int64("seed", 42, "partitioner seed")
		ruleFile  = flag.String("rules", "", "custom rule file (Jena-style syntax); replaces the OWL-Horst compilation pipeline")
		prov      = flag.Bool("prov", false, "record derivation provenance (rule, round, premises per inferred triple)")
		explain   = flag.String("explain", "", "N-Triples statement to explain after materialization, e.g. '<s> <p> <o> .' (implies -prov)")
	)
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "missing -in")
		flag.Usage()
		os.Exit(2)
	}

	dict := rdf.NewDict()
	g := rdf.NewGraph()
	n, err := rio.LoadFile(*in, dict, g)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "loaded %d triples from %s\n", n, *in)

	ds := &datagen.Dataset{Name: *in, Dict: dict, Graph: g}
	if *marker != "" {
		ds.DomainKey = datagen.MarkerKey(*marker)
	}

	cfg := core.Config{
		Workers:    *workers,
		Strategy:   core.Strategy(*strategy),
		Policy:     core.PolicyKind(*policy),
		Engine:     core.EngineKind(*engine),
		Transport:  core.TransportKind(*transport),
		Simulate:   *simulate,
		Seed:       *seed,
		Provenance: *prov || *explain != "",
	}
	start := time.Now()
	var res *core.Result
	if *ruleFile != "" {
		src, rerr := os.ReadFile(*ruleFile)
		if rerr != nil {
			fatal(rerr)
		}
		rs, rerr := rules.Parse(string(src), dict)
		if rerr != nil {
			fatal(rerr)
		}
		fmt.Fprintf(os.Stderr, "loaded %d custom rules from %s\n", len(rs), *ruleFile)
		res, err = core.MaterializeRules(ds, rs, cfg)
	} else {
		res, err = core.Materialize(ds, cfg)
	}
	if err != nil {
		fatal(err)
	}
	wall := time.Since(start)

	fmt.Fprintf(os.Stderr, "closure: %d triples (%d inferred) in %d rounds\n",
		res.Graph.Len(), res.Inferred, res.Rounds)
	fmt.Fprintf(os.Stderr, "partitioning: %v", res.PartitionTime.Round(time.Millisecond))
	if res.Metrics != nil {
		fmt.Fprintf(os.Stderr, "  bal=%.1f IR=%.3f", res.Metrics.Bal, res.Metrics.IR)
	}
	fmt.Fprintf(os.Stderr, "  OR=%.3f\n", res.OR)
	if *simulate {
		fmt.Fprintf(os.Stderr, "simulated parallel time: %v (wall clock %v)\n",
			res.Elapsed.Round(time.Millisecond), wall.Round(time.Millisecond))
	} else {
		fmt.Fprintf(os.Stderr, "elapsed: %v\n", res.Elapsed.Round(time.Millisecond))
	}
	for i, tm := range res.PerWorker {
		fmt.Fprintf(os.Stderr, "  worker %2d: reason=%v io=%v sync=%v sent=%d derived=%d\n",
			i, tm.Reason.Round(time.Millisecond), tm.IO.Round(time.Millisecond),
			tm.Sync.Round(time.Millisecond), tm.Sent, tm.Derived)
	}

	if *explain != "" {
		if err := explainTriple(dict, res.Graph, *explain); err != nil {
			fatal(err)
		}
	}

	if *out != "" {
		var w io.Writer
		of, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer of.Close()
		w = of
		if err := ntriples.WriteGraph(w, dict, res.Graph); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote closure to %s\n", *out)
	}
}

// explainTriple parses one N-Triples statement, looks it up in the closure
// and prints its derivation DAG as a text tree on stdout.
func explainTriple(dict *rdf.Dict, g *rdf.Graph, stmt string) error {
	st, err := ntriples.NewReader(strings.NewReader(stmt)).Next()
	if err != nil {
		return fmt.Errorf("parsing -explain statement: %w", err)
	}
	t := rdf.Triple{S: dict.Intern(st.S), P: dict.Intern(st.P), O: dict.Intern(st.O)}
	node, ok := g.Explain(t, 0)
	if !ok {
		return fmt.Errorf("triple not in closure: %s", stmt)
	}
	return rdf.WriteExplainText(os.Stdout, dict, node)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
