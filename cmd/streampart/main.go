// Command streampart partitions an N-Triples dataset into per-partition
// files in a single streaming pass, without loading the graph into memory —
// the scalability property the paper highlights for the hash and
// domain-specific policies (§III-A). It shows that pass, nothing more: the
// part files are not inputs for a cluster's workers.
//   - A part's closure alone misses every derivation that joins tuples of
//     two parts; only a run's round exchange supplies those.
//   - owlnode reads owlcluster's work directory (owner.tsv, rules.rules,
//     cluster.meta), none of which streampart writes.
//   - Its schema test is not owlhorst's (see partition.StreamPartition), so
//     the parts hold schema triples a planned worker would not own.
//
// Usage:
//
//	streampart -in lubm10.nt -k 4 -policy hash -out parts/
//	streampart -in lubm10.nt -k 8 -policy domain -domain-marker univ -out parts/
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"powl/internal/core"
	"powl/internal/datagen"
	"powl/internal/partition"
)

func main() {
	var (
		in     = flag.String("in", "", "input N-Triples file (required)")
		outDir = flag.String("out", "parts", "output directory for part files")
		k      = flag.Int("k", 4, "number of partitions")
		policy = flag.String("policy", "hash", "streaming policy: hash, domain")
		marker = flag.String("domain-marker", "univ", "locality marker for the domain policy")
	)
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "missing -in")
		flag.Usage()
		os.Exit(2)
	}

	assigner, err := core.NewStreamAssigner(core.PolicyKind(*policy), *k, datagen.MarkerKey(*marker))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	f, err := os.Open(*in)
	if err != nil {
		fatal(err)
	}
	defer f.Close()

	sinks := make([]io.Writer, *k)
	var flushers []*bufio.Writer
	for i := range sinks {
		of, err := os.Create(filepath.Join(*outDir, fmt.Sprintf("part_%02d.nt", i)))
		if err != nil {
			fatal(err)
		}
		defer of.Close()
		bw := bufio.NewWriter(of)
		flushers = append(flushers, bw)
		sinks[i] = bw
	}

	stats, err := partition.StreamPartition(bufio.NewReader(f), *k, assigner, sinks)
	if err != nil {
		fatal(err)
	}
	for _, bw := range flushers {
		if err := bw.Flush(); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("streamed %d triples into %d parts (%s policy)\n", stats.Total, *k, assigner.Name())
	fmt.Printf("per-partition: %v\n", stats.PerPartition)
	fmt.Printf("replicated: %d  schema broadcast: %d\n", stats.Replicated, stats.SchemaBroadcast)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
