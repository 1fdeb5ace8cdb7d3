// Command sparql answers a basic-graph-pattern query over an N-Triples
// knowledge base, optionally materializing it first — the query side of the
// materialized-KB trade-off the paper's introduction describes.
//
// Usage:
//
//	sparql -in closure.nt -q 'SELECT ?x WHERE { ?x a <http://.../Chair> . }'
//	sparql -in base.nt -materialize -workers 4 -q "$(cat query.rq)"
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"powl/internal/core"
	"powl/internal/datagen"
	"powl/internal/query"
	"powl/internal/rdf"
	"powl/internal/rio"
)

func main() {
	var (
		in          = flag.String("in", "", "input RDF file, .nt or .ttl (required)")
		q           = flag.String("q", "", "SPARQL-subset query (required)")
		materialize = flag.Bool("materialize", false, "compute the OWL-Horst closure before querying")
		workers     = flag.Int("workers", 4, "workers for -materialize")
		timeout     = flag.Duration("timeout", 0, "abort the query after this long (0 = no limit)")
	)
	flag.Parse()
	if *in == "" || *q == "" {
		fmt.Fprintln(os.Stderr, "need both -in and -q")
		flag.Usage()
		os.Exit(2)
	}

	dict := rdf.NewDict()
	g := rdf.NewGraph()
	if _, err := rio.LoadFile(*in, dict, g); err != nil {
		fatal(err)
	}

	if *materialize {
		ds := &datagen.Dataset{Name: *in, Dict: dict, Graph: g}
		res, err := core.Materialize(ds, core.Config{Workers: *workers, Policy: core.HashPolicy})
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "materialized: %d -> %d triples\n", g.Len(), res.Graph.Len())
		g = res.Graph
	}

	parsed, err := query.Parse(*q, dict)
	if err != nil {
		fatal(err)
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	g.BuildIndexes(parsed.Indexes())
	start := time.Now()
	res, err := parsed.SolveContext(ctx, g)
	if errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "query aborted after %v (%d partial rows discarded)\n", *timeout, len(res.Rows))
		os.Exit(1)
	}
	res.SortRows()
	fmt.Print(res.Format(dict))
	fmt.Fprintf(os.Stderr, "%d rows in %v\n", len(res.Rows), time.Since(start).Round(time.Microsecond))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
