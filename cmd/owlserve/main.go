// Command owlserve is the live query server: it materializes a knowledge
// base at startup, then serves SPARQL-subset queries over epoch-pinned MVCC
// snapshots while accepting N-Triples inserts that an incremental-reasoning
// writer folds into fresh epochs. Robustness features — admission control
// with load shedding, per-query deadlines, a slow-query watchdog, panic
// isolation — are always on; SIGTERM triggers a graceful drain (stop
// admitting, finish in-flight work, flush the writer and the journal).
//
// Usage:
//
//	owlserve -addr :7077 -lubm 1 -deadline 2s -slow 500ms -journal serve.jsonl
//	owlserve -addr :7077 -in closure.nt -stats-out stats.json
//
// The process exits 0 only if the drain dropped nothing: every admitted
// query completed and every accepted insert was applied.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"powl/internal/datagen"
	"powl/internal/obs"
	"powl/internal/rdf"
	"powl/internal/rio"
	"powl/internal/serve"
	"powl/internal/serve/loadgen"
	"powl/internal/vocab"
)

func main() {
	var (
		addr     = flag.String("addr", ":7077", "listen address")
		in       = flag.String("in", "", "N-Triples/Turtle input; empty generates LUBM")
		lubm     = flag.Int("lubm", 1, "LUBM universities when -in is empty")
		depts    = flag.Int("depts", 3, "LUBM departments per university (0 = LUBM default)")
		seed     = flag.Int64("seed", 7, "LUBM generator seed")
		inflight = flag.Int("max-inflight", 0, "concurrent query slots (0 = default)")
		queue    = flag.Int("queue", 0, "admission queue depth (0 = default)")
		deadline = flag.Duration("deadline", 2*time.Second, "per-query deadline")
		slow     = flag.Duration("slow", 500*time.Millisecond, "slow-query watchdog threshold (0 = off)")
		journal  = flag.String("journal", "", "JSONL journal path (empty = no journal)")
		statsOut = flag.String("stats-out", "", "write final stats JSON here (empty = stderr)")
		prov     = flag.Bool("prov", false, "record derivation provenance and serve POST /explain")
		threads  = flag.Int("threads", 0, "intra-worker parallel rule-firing goroutines for writer-side closures (0 or 1 = one, inline)")
		churn    = flag.Bool("churn-axiom", false, "arm the loadgen churn drill: make the churn predicate a subproperty of the probe marker")
		cratio   = flag.Float64("compact-ratio", 0, "compact when dead/log exceeds this (0 = default, negative = never)")
		cmin     = flag.Int("compact-min-dead", 0, "never compact below this many tombstones (0 = default)")
	)
	flag.Parse()

	dict := rdf.NewDict()
	base := rdf.NewGraph()
	if *in != "" {
		if _, err := rio.LoadFile(*in, dict, base); err != nil {
			fatal(err)
		}
	} else {
		ds := datagen.LUBM(datagen.LUBMConfig{Universities: *lubm, Seed: *seed, DeptsPerUniv: *depts})
		dict, base = ds.Dict, ds.Graph
	}
	if *churn {
		// The axiom compiles to a ground rule deriving one probe marker per
		// churn triple, so loadgen deletes exercise full DRed retraction.
		base.Add(rdf.Triple{
			S: dict.InternIRI(loadgen.ChurnBatchPredicate),
			P: dict.InternIRI(vocab.RDFSSubPropertyOf),
			O: dict.InternIRI(loadgen.ChurnMarkerPredicate),
		})
	}
	start := time.Now()
	kb := serve.Build(dict, base, serve.BuildConfig{Prov: *prov, Threads: *threads})
	fmt.Fprintf(os.Stderr, "owlserve: materialized %d -> %d triples in %v\n",
		base.Len(), kb.Graph.Len(), time.Since(start).Round(time.Millisecond))

	var sink *obs.JSONLSink
	var run *obs.Run
	if *journal != "" {
		f, err := os.Create(*journal)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		sink = obs.NewJSONLSink(f)
		run = obs.NewRun(sink, nil)
	}

	srv, err := serve.New(kb, serve.Config{
		MaxInflight:    *inflight,
		QueueDepth:     *queue,
		Deadline:       *deadline,
		SlowQuery:      *slow,
		CompactRatio:   *cratio,
		CompactMinDead: *cmin,
		Run:            run,
	})
	if err != nil {
		fatal(err)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	//powl:ignore ctxspawn the send targets a buffered channel of capacity 1 and can never block; the goroutine exits when the listener closes
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "owlserve: serving on %s\n", *addr)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	select {
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "owlserve: signal received, draining")
	case err := <-errc:
		fatal(err)
	}

	// Drain order: first the serve layer (stops admitting, completes every
	// admitted query, flushes the writer), then the HTTP listener (waits
	// for handlers to write their responses out).
	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "owlserve: drain: %v\n", err)
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "owlserve: http shutdown: %v\n", err)
	}
	if sink != nil {
		if err := sink.Flush(); err != nil {
			fmt.Fprintf(os.Stderr, "owlserve: journal flush: %v\n", err)
		}
	}

	st := srv.Stats()
	out, _ := json.MarshalIndent(st, "", "  ")
	if *statsOut != "" {
		if err := os.WriteFile(*statsOut, append(out, '\n'), 0o644); err != nil {
			fatal(err)
		}
	} else {
		fmt.Fprintf(os.Stderr, "owlserve: final stats: %s\n", out)
	}
	if st.Dropped != 0 {
		fmt.Fprintf(os.Stderr, "owlserve: FAILED drain contract: %d admitted queries dropped\n", st.Dropped)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "owlserve: drained clean")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
