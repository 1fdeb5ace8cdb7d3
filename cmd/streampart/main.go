// Command streampart partitions an N-Triples dataset into per-partition
// files in a single streaming pass, without loading the graph into memory —
// the scalability property the paper highlights for the hash and
// domain-specific policies (§III-A). The resulting files can be fed
// directly to one owlinfer worker each.
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
