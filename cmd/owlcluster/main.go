// Command owlcluster is the master of the shared-filesystem deployment (the
// paper's own setup, §V): it plans the workers as core.Materialize does
// (compile the ontology, partition the data), writes the work directory,
// and either prints the owlnode commands to run on each cluster node or —
// with -run — spawns them as local processes and merges their closures.
//
// Usage:
//
//	owlcluster -in lubm10.nt -k 4 -dir /sharedfs/job1            # prepare only
//	owlcluster -in lubm10.nt -k 4 -dir work -run -o closure.nt   # run locally
//
// On a real cluster, point -dir at the shared filesystem and start one
// `owlnode -id <i>` per machine.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"time"

	"powl/internal/cluster"
	"powl/internal/core"
	"powl/internal/datagen"
	"powl/internal/faultinject"
	"powl/internal/fscluster"
	"powl/internal/ntriples"
	"powl/internal/obs"
	"powl/internal/rdf"
	"powl/internal/rio"
)

var (
	in        = flag.String("in", "", "input RDF file, .nt or .ttl (required)")
	dir       = flag.String("dir", "powl-work", "shared work directory")
	k         = flag.Int("k", 4, "number of cluster nodes")
	policy    = flag.String("policy", "graph", "data partitioning policy: graph, hash")
	seed      = flag.Int64("seed", 42, "partitioner seed")
	run       = flag.Bool("run", false, "spawn owlnode processes locally and merge the closures")
	nodeBin   = flag.String("node-bin", "", "owlnode binary for -run ('' = go run ./cmd/owlnode)")
	engine    = flag.String("engine", "forward", "engine passed to the nodes")
	threads   = flag.Int("threads", 0, "intra-worker parallel rule-firing goroutines per node (0 or 1 = one, inline)")
	transport = flag.String("transport", "file", "cluster transport: file (owlnode processes over the shared work dir), tcp or mem (in-process workers with transport-generic recovery)")
	out       = flag.String("o", "", "merged closure output file (with -run)")
	fault     = flag.String("fault", "", "fault-injection spec, e.g. \"crash=2\" or \"crash=2,drop=2,dropfrom=0,dropto=1\" (see internal/faultinject); crash targets -fault-node, the rest hits the transport")
	faultNode = flag.Int("fault-node", -1, "node receiving the -fault spec (-1 = last node)")
	deadline  = flag.Duration("round-deadline", 2*time.Second, "supervisor: how long a node may trail a round before being declared dead (with -run)")
	journal   = flag.String("journal", "", "write the merged run journal (JSONL) to this file (with -run)")
	trace     = flag.String("trace", "", "write a Chrome/Perfetto trace-event file to this file (with -run)")
	report    = flag.Bool("report", false, "print the profile report — top rules, per-worker phases, transport totals (with -run)")
	debugAddr = flag.String("debug-addr", "", "serve the master's /metrics and /debug/pprof on this address")
)

func main() {
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "missing -in")
		flag.Usage()
		os.Exit(2)
	}
	if *debugAddr != "" {
		addr, err := obs.ServeDebug(*debugAddr, obs.NewRegistry())
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "debug endpoints on http://%s\n", addr)
	}
	if *fault != "" {
		if _, err := faultinject.ParseSpec(*fault); err != nil {
			fatal(err)
		}
		if *faultNode < 0 {
			*faultNode = *k - 1
		}
		if *faultNode >= *k {
			fatal(fmt.Errorf("-fault-node %d out of range for -k %d", *faultNode, *k))
		}
	}

	dict := rdf.NewDict()
	g := rdf.NewGraph()
	n, err := rio.LoadFile(*in, dict, g)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "loaded %d triples\n", n)

	// The tcp and mem transports have no owlnode process to hand the work to;
	// the cluster runs in-process with the transport-generic recovery path
	// (checkpoints under -dir, failure detector, partition adoption).
	if *transport != "file" {
		if !*run {
			fatal(fmt.Errorf("-transport %s runs the cluster in-process; add -run", *transport))
		}
		runInProcess(dict, g)
		return
	}

	start := time.Now()
	plan, err := core.NewPlan(&datagen.Dataset{Name: *in, Dict: dict, Graph: g},
		core.Config{Workers: *k, Policy: core.PolicyKind(*policy), Seed: *seed})
	if err != nil {
		fatal(err)
	}
	if err := fscluster.Prepare(*dir, dict, plan); err != nil {
		fatal(err)
	}
	m := plan.Metrics
	fmt.Fprintf(os.Stderr, "prepared %s in %v: bal=%.1f IR=%.3f nodes/part=%v\n",
		*dir, time.Since(start).Round(time.Millisecond), m.Bal, m.IR, m.NodesPerPart)

	if !*run {
		fmt.Println("work directory ready; start one node per machine:")
		for i := 0; i < *k; i++ {
			extra := ""
			if *fault != "" && i == *faultNode {
				extra = " -fault " + *fault
			}
			if *threads > 1 {
				extra += fmt.Sprintf(" -threads %d", *threads)
			}
			fmt.Printf("  owlnode -dir %s -id %d -engine %s%s\n", *dir, i, *engine, extra)
		}
		return
	}

	// Spawn the nodes as real OS processes. With any observability flag set,
	// every node journals to its own fragment in the work directory; the
	// fragments are merged below once the run completes.
	obsWanted := *journal != "" || *trace != "" || *report
	layout := fscluster.Layout{Dir: *dir}
	procs := make([]*exec.Cmd, *k)
	for i := 0; i < *k; i++ {
		args := []string{"-dir", *dir, "-id", fmt.Sprint(i), "-engine", *engine}
		if *threads > 1 {
			args = append(args, "-threads", fmt.Sprint(*threads))
		}
		if obsWanted {
			args = append(args, "-journal", layout.JournalFile(i))
		}
		if *fault != "" && i == *faultNode {
			args = append(args, "-fault", *fault)
		}
		var cmd *exec.Cmd
		if *nodeBin != "" {
			cmd = exec.Command(*nodeBin, args...)
		} else {
			cmd = exec.Command("go", append([]string{"run", "./cmd/owlnode"}, args...)...)
		}
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			fatal(err)
		}
		procs[i] = cmd
	}

	// Supervise alongside the nodes: detect a node missing its round deadline,
	// declare it dead, and let a survivor adopt its partition.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type supOut struct {
		res *fscluster.SuperviseResult
		err error
	}
	supCh := make(chan supOut, 1)
	go func() {
		res, err := fscluster.Supervise(ctx, fscluster.SuperviseConfig{
			Dir: *dir, K: *k, RoundDeadline: *deadline,
		})
		supCh <- supOut{res, err}
	}()

	waitErrs := make([]error, *k)
	for i, p := range procs {
		waitErrs[i] = p.Wait()
	}
	var sup supOut
	select {
	case sup = <-supCh:
	case <-time.After(5 * time.Second):
		// All nodes have exited but supervision has not converged (e.g. every
		// node failed before writing a closure); stop it and report.
		cancel()
		sup = <-supCh
	}
	for _, victim := range sortedVictims(sup.res.Dead) {
		fmt.Fprintf(os.Stderr, "node %d declared dead; partition recovered by node %d\n", victim, sup.res.Dead[victim])
	}
	for i, werr := range waitErrs {
		if werr == nil {
			continue
		}
		if _, dead := sup.res.Dead[i]; dead {
			continue // expected: the node died and was recovered
		}
		fatal(fmt.Errorf("node %d: %w", i, werr))
	}
	if sup.err != nil {
		fatal(fmt.Errorf("supervisor: %w", sup.err))
	}

	mergeStart := time.Now()
	mdict, merged, err := fscluster.MergeClosures(*dir, *k)
	if err != nil {
		fatal(err)
	}
	mergeDur := time.Since(mergeStart)
	fmt.Fprintf(os.Stderr, "merged closure: %d triples (%d inferred) in %v total\n",
		merged.Len(), merged.Len()-n, time.Since(start).Round(time.Millisecond))
	writeClosure(*out, mdict, merged)

	if obsWanted {
		events, err := mergeJournals(layout, *k)
		if err != nil {
			fatal(err)
		}
		// The master's aggregation (closure merge) is a phase of its own,
		// appended on the master track after the last node event — the same
		// accounting the in-process cluster layer journals.
		last := events[len(events)-1].TS
		events = append(events,
			obs.Event{Type: obs.EvPhase, TS: last, Dur: int64(mergeDur),
				Worker: obs.MasterWorker, Phase: obs.PhaseAggregate},
			obs.Event{Type: obs.EvRunEnd, TS: last + int64(mergeDur),
				Dur: int64(time.Since(start)), Worker: obs.MasterWorker})
		writeObs(events, *journal, *trace, *report)
	}
}

// runInProcess executes the cluster inside this process over the tcp or mem
// transport with recovery armed: per-round delta checkpoints in -dir, the
// barrier-frontier failure detector, and partition adoption by the lowest
// live worker. The -fault spec is split the way a real deployment fails:
// crash=N becomes the -fault-node worker's fail-stop schedule, while
// send/recv/delay faults and the drop=N connection severing wrap the
// transport itself.
func runInProcess(dict *rdf.Dict, g *rdf.Graph) {
	ds := &datagen.Dataset{Name: *in, Dict: dict, Graph: g}

	var inject []*faultinject.Injector
	var trFault *faultinject.Injector
	if *fault != "" {
		fcfg, err := faultinject.ParseSpec(*fault)
		if err != nil {
			fatal(err)
		}
		if fcfg.CrashRound > 0 {
			inject = make([]*faultinject.Injector, *k)
			inject[*faultNode] = faultinject.New(faultinject.Config{CrashRound: fcfg.CrashRound})
			fcfg.CrashRound = 0
		}
		if fcfg != (faultinject.Config{}) {
			trFault = faultinject.New(fcfg)
		}
	}

	// A fresh checkpoint directory: an adopter must never replay the deltas
	// of an earlier run in the same -dir.
	ckdir := fscluster.Layout{Dir: *dir}.CkptDir()
	if err := os.RemoveAll(ckdir); err != nil {
		fatal(err)
	}
	store, err := cluster.NewDirCheckpoints(ckdir, dict)
	if err != nil {
		fatal(err)
	}

	obsWanted := *journal != "" || *trace != "" || *report
	var sink *obs.MemSink
	var orun *obs.Run
	if obsWanted {
		sink = &obs.MemSink{}
		orun = obs.NewRun(sink, obs.NewRegistry())
	}

	start := time.Now()
	res, err := core.Materialize(ds, core.Config{
		Workers:        *k,
		Policy:         core.PolicyKind(*policy),
		Engine:         core.EngineKind(*engine),
		Threads:        *threads,
		Transport:      core.TransportKind(*transport),
		Seed:           *seed,
		Obs:            orun,
		Recovery:       &cluster.RecoveryConfig{Store: store, RoundDeadline: *deadline},
		Inject:         inject,
		TransportFault: trFault,
	})
	if err != nil {
		fatal(err)
	}
	for _, victim := range sortedVictims(res.Recovered) {
		fmt.Fprintf(os.Stderr, "worker %d declared dead; partition recovered by worker %d\n",
			victim, res.Recovered[victim])
	}
	fmt.Fprintf(os.Stderr, "closure: %d triples (%d inferred) in %d rounds, %v total\n",
		res.Graph.Len(), res.Inferred, res.Rounds, time.Since(start).Round(time.Millisecond))

	writeClosure(*out, dict, res.Graph)
	if obsWanted {
		writeObs(sink.Events(), *journal, *trace, *report)
	}
}

// writeClosure writes the merged closure to path, when one was asked for.
func writeClosure(path string, dict *rdf.Dict, g *rdf.Graph) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := ntriples.WriteGraph(f, dict, g); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
}

// writeObs writes the run's journal and trace and prints its report, each
// when its flag asked for it.
func writeObs(events []obs.Event, journal, trace string, report bool) {
	if err := obs.WriteFiles(os.Stderr, events, journal, trace); err != nil {
		fatal(err)
	}
	if report {
		obs.WriteReport(os.Stdout, events, 10)
	}
}

// mergeJournals reads every node's journal fragment and interleaves the
// events by timestamp. Each node journals on its own clock (ns since its
// own start); the nodes start within milliseconds of each other, so the
// merged ordering is faithful at round granularity. A missing fragment is
// tolerated: a node declared dead may have crashed before flushing.
func mergeJournals(l fscluster.Layout, k int) ([]obs.Event, error) {
	var events []obs.Event
	found := 0
	for i := 0; i < k; i++ {
		f, err := os.Open(l.JournalFile(i))
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return nil, err
		}
		evs, perr := obs.ParseJournal(f)
		f.Close()
		if perr != nil {
			return nil, fmt.Errorf("node %d journal: %w", i, perr)
		}
		events = append(events, evs...)
		found++
	}
	if found == 0 {
		return nil, fmt.Errorf("no node journals found in %s", l.Dir)
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].TS < events[j].TS })
	return events, nil
}

// sortedVictims orders a victim->adopter recovery map for stable reporting
// (and for the log lines the chaos CI job greps).
func sortedVictims(dead map[int]int) []int {
	victims := make([]int, 0, len(dead))
	for v := range dead {
		victims = append(victims, v)
	}
	sort.Ints(victims)
	return victims
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
