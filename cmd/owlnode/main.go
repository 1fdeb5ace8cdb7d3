// Command owlnode is one worker of the shared-filesystem cluster: it runs
// Algorithm 3's round loop against the work directory owlcluster prepared,
// synchronizing with its peers purely through files — the communication
// mechanism of the paper's implementation (§V).
//
// Usage (one per cluster node):
//
//	owlnode -dir /sharedfs/job1 -id 3
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"powl/internal/core"
	"powl/internal/faultinject"
	"powl/internal/fscluster"
	"powl/internal/obs"
)

func main() {
	var (
		dir       = flag.String("dir", "powl-work", "shared work directory")
		id        = flag.Int("id", -1, "this node's index (required)")
		engine    = flag.String("engine", "forward", "rule engine: forward, rete, hybrid, hybrid-shared")
		threads   = flag.Int("threads", 0, "intra-worker parallel rule-firing goroutines (0 or 1 = one, inline; rete ignores it)")
		poll      = flag.Duration("poll", 20*time.Millisecond, "marker polling interval")
		timeout   = flag.Duration("timeout", 10*time.Minute, "per-round peer wait timeout")
		fault     = flag.String("fault", "", "fault-injection spec, e.g. \"crash=2\" (see internal/faultinject)")
		journal   = flag.String("journal", "", "write this node's run journal (JSONL) to the given file")
		debugAddr = flag.String("debug-addr", "", "serve /metrics and /debug/pprof on this address (e.g. localhost:6060)")
	)
	flag.Parse()
	if *id < 0 {
		fmt.Fprintln(os.Stderr, "missing -id")
		flag.Usage()
		os.Exit(2)
	}
	var inject *faultinject.Injector
	if *fault != "" {
		fcfg, err := faultinject.ParseSpec(*fault)
		if err != nil {
			fatal(err)
		}
		inject = faultinject.New(fcfg)
	}
	k, err := fscluster.ClusterSize(*dir)
	if err != nil {
		fatal(fmt.Errorf("reading cluster size (did owlcluster prepare %s?): %w", *dir, err))
	}
	if *id >= k {
		fatal(fmt.Errorf("id %d out of range for a %d-node cluster", *id, k))
	}

	eng, err := core.NewEngine(core.EngineKind(*engine), *threads)
	if err != nil {
		fatal(err)
	}

	var run *obs.Run
	var sink *obs.JSONLSink
	if *journal != "" || *debugAddr != "" {
		reg := obs.NewRegistry()
		if *journal != "" {
			f, err := os.Create(*journal)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			sink = obs.NewJSONLSink(f)
		}
		run = obs.NewRun(sink, reg)
		if *debugAddr != "" {
			addr, err := obs.ServeDebug(*debugAddr, reg)
			if err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "node %d: debug endpoints on http://%s\n", *id, addr)
		}
	}

	start := time.Now()
	res, err := fscluster.RunNode(fscluster.NodeConfig{
		ID: *id, K: k, Dir: *dir,
		Engine: eng, Poll: *poll, Timeout: *timeout,
		Inject: inject, Obs: run,
	})
	if sink != nil {
		// An injected crash still leaves a valid journal (fault event last).
		if ferr := sink.Flush(); ferr != nil {
			fmt.Fprintf(os.Stderr, "node %d: journal: %v\n", *id, ferr)
		}
	}
	if err != nil {
		fatal(err)
	}
	rejoined := ""
	if res.Epoch > 1 {
		rejoined = fmt.Sprintf(", epoch %d (rejoined at round %d)", res.Epoch, res.StartRound)
	}
	fmt.Fprintf(os.Stderr, "node %d: %d rounds, derived %d, sent %d, closure %d triples, %v%s\n",
		*id, res.Rounds, res.Derived, res.Sent, res.Closure.Len(),
		time.Since(start).Round(time.Millisecond), rejoined)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
