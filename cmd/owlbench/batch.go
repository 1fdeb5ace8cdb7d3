package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"powl/internal/cluster"
	"powl/internal/core"
	"powl/internal/datagen"
	"powl/internal/gpart"
	"powl/internal/ntriples"
	"powl/internal/owlhorst"
	"powl/internal/partition"
	"powl/internal/rdf"
	"powl/internal/reason"
	"powl/internal/rules"
	"powl/internal/serve"
	"powl/internal/transport"
)

// partitionSeed drives the graph partitioner's tie-breaking. It is a
// constant, not the workload seed: the program under test sees generated
// inputs only.
const partitionSeed = 42

// minBatchRepeats is the least number of timed closures a run reports a
// median over, however short --seconds is.
const minBatchRepeats = 3

// batchInput is what set-up hands the timed phase: the knowledge base as
// N-Triples bytes in memory and the digest every closure must reproduce.
type batchInput struct {
	nt     []byte
	base   int
	oracle closureDigest
}

// generate builds the workload's dataset from the seed.
func generate(dataset string, seed int64, scale float64) *datagen.Dataset {
	univ := func(full int) int {
		n := int(float64(full)*scale + 0.5)
		if n < 1 {
			n = 1
		}
		return n
	}
	if dataset == "uobm" {
		return datagen.UOBM(datagen.UOBMConfig{Universities: univ(uobmUniversities), Seed: seed})
	}
	return datagen.LUBM(datagen.LUBMConfig{Universities: univ(lubmUniversities), Seed: seed})
}

// seedOneDigest is the closure of each full-size dataset generated from seed
// 1, checked in: a change to the generators, the parser, the rule compiler or
// an engine that alters what is derived fails the benchmark's default run
// even if every path still agrees with every other.
var seedOneDigest = map[string]closureDigest{
	"lubm": {Triples: 364661, Bytes: 49825567, Sum: 0x434ea1f97b7658e5},
	"uobm": {Triples: 253664, Bytes: 35733725, Sum: 0x3db13058c07c5f5c},
}

// setupBatch is the batch set-up: generate, serialize, and compute the
// serial forward closure whose digest the timed closures are checked
// against.
func setupBatch(w workload, seed int64, scale float64) (*batchInput, error) {
	ds := generate(w.dataset, seed, scale)
	var buf bytes.Buffer
	if err := ntriples.WriteGraph(&buf, ds.Dict, ds.Graph); err != nil {
		return nil, fmt.Errorf("serializing %s: %w", w.dataset, err)
	}
	kb := serve.Build(ds.Dict, ds.Graph, serve.BuildConfig{})
	in := &batchInput{
		nt:     buf.Bytes(),
		base:   ds.Graph.Len(),
		oracle: digestTriples(ds.Dict, kb.Graph.Triples()),
	}
	if want := seedOneDigest[w.dataset]; seed == 1 && scale == 1 && in.oracle != want {
		return nil, fmt.Errorf("seed 1 %s closes to %v, checked in is %v", w.dataset, in.oracle, want)
	}
	return in, nil
}

// closureDigest identifies a closure independently of triple order and of
// the dictionary that interned it: the number of triples, the length of its
// N-Triples serialization, and the wrapping sum of one hash per statement.
type closureDigest struct {
	Triples int
	Bytes   int64
	Sum     uint64
}

func (d closureDigest) String() string {
	return fmt.Sprintf("%d triples, %d bytes, sum %016x", d.Triples, d.Bytes, d.Sum)
}

// digestTriples hashes each term's N-Triples form once per ID and combines
// the three hashes per triple, so digesting a 365k-triple closure costs
// milliseconds, not a second serialization.
func digestTriples(dict *rdf.Dict, ts []rdf.Triple) closureDigest {
	type termInfo struct {
		hash uint64
		size int64
	}
	cache := make([]termInfo, dict.Len()+1)
	info := func(id rdf.ID) termInfo {
		if int(id) >= len(cache) {
			grown := make([]termInfo, int(id)+1)
			copy(grown, cache)
			cache = grown
		}
		if cache[id].size == 0 {
			s := dict.Term(id).String()
			h := uint64(14695981039346656037)
			for i := 0; i < len(s); i++ {
				h ^= uint64(s[i])
				h *= 1099511628211
			}
			cache[id] = termInfo{hash: h, size: int64(len(s))}
		}
		return cache[id]
	}
	d := closureDigest{Triples: len(ts)}
	for _, t := range ts {
		s, p, o := info(t.S), info(t.P), info(t.O)
		// "S P O .\n": two separating spaces plus the 3-byte terminator.
		d.Bytes += s.size + p.size + o.size + 5
		x := s.hash*0x9e3779b97f4a7c15 ^ (p.hash<<21 | p.hash>>43) ^ (o.hash<<42|o.hash>>22)*0xbf58476d1ce4e5b9
		x ^= x >> 31
		x *= 0x94d049bb133111eb
		x ^= x >> 29
		d.Sum += x
	}
	return d
}

// countingWriter is the sink a closure is serialized to.
type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// closureOut is one finished closure, kept only long enough to check it.
type closureOut struct {
	dict    *rdf.Dict
	graph   *rdf.Graph
	written int64
}

// check compares a closure with the oracle.
func (o closureOut) check(want closureDigest) error {
	got := digestTriples(o.dict, o.graph.Triples())
	if got != want {
		return fmt.Errorf("closure is %v, serial forward closure is %v", got, want)
	}
	if o.written != want.Bytes {
		return fmt.Errorf("closure serialized to %d bytes, want %d", o.written, want.Bytes)
	}
	return nil
}

// productClosure is the batch pipeline as an operator runs it: N-Triples
// bytes to a graph, through the product's own materialize entry point, out to
// a serialized closure. One-worker workloads take serve.Build, the path
// owlserve loads a KB by (compile, load, forward engine, nothing else);
// k-worker workloads take core.Materialize over loopback TCP.
func productClosure(w workload, nt []byte) (closureOut, error) {
	dict, g := rdf.NewDict(), rdf.NewGraph()
	if _, err := ntriples.ReadGraph(bytes.NewReader(nt), dict, g); err != nil {
		return closureOut{}, err
	}
	var closed *rdf.Graph
	if w.workers == 1 {
		closed = serve.Build(dict, g, serve.BuildConfig{Threads: w.threads}).Graph
	} else {
		res, err := core.Materialize(&datagen.Dataset{Name: w.dataset, Dict: dict, Graph: g}, core.Config{
			Workers: w.workers, Threads: w.threads, Policy: w.policy,
			Engine: core.ForwardEngine, Transport: core.TCPTransport, Seed: partitionSeed,
		})
		if err != nil {
			return closureOut{}, err
		}
		closed = res.Graph
	}
	var sink countingWriter
	if err := ntriples.WriteGraph(&sink, dict, closed); err != nil {
		return closureOut{}, err
	}
	return closureOut{dict: dict, graph: closed, written: sink.n}, nil
}

// timeClosure runs one closure with a collected heap and returns how long it
// took and whether it matched the oracle. Checking happens off the clock.
func timeClosure(in *batchInput, closure func() (closureOut, error)) (time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	out, err := closure()
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	return d, out.check(in.oracle)
}

// runBatch is the untraced run: one discarded warm-up, then closures until
// the measuring time is used up.
func runBatch(w workload, in *batchInput, seconds float64, rep *report) {
	product := func() (closureOut, error) { return productClosure(w, in.nt) }
	if _, err := timeClosure(in, product); err != nil {
		rep.fail("warm-up closure: %v", err)
	}
	rep.attempted++
	var times []float64
	start := time.Now()
	for len(times) < minBatchRepeats || time.Since(start).Seconds() < seconds {
		d, err := timeClosure(in, product)
		rep.attempted++
		if err != nil {
			rep.fail("closure %d: %v", len(times)+1, err)
		}
		times = append(times, d.Seconds())
	}
	med := median(times)
	q1, q3 := quartiles(times)
	rep.e2e["op_p50_ms"] = med * 1000
	rep.detail("closure_triples_per_s", float64(in.oracle.Triples)/med, "1/s")
	rep.detail("closure_s", med, "s")
	rep.detail("closure_q1_s", q1, "s")
	rep.detail("closure_q3_s", q3, "s")
	rep.detail("closure_n", float64(len(times)), "count")
	rep.detail("input_triples", float64(in.base), "count")
	rep.detail("closure_triples", float64(in.oracle.Triples), "count")
	rep.digest = in.oracle.String()
}

// ---- traced run ----------------------------------------------------------

// timedEngine is the timing shim the traced run hands cluster.Config in
// place of reason.Forward. It implements the context and incremental
// interfaces so the cluster takes exactly the paths it takes with the real
// engine, and records one span per call.
type timedEngine struct {
	inner  reason.Forward
	tr     *tracer
	parent int

	mu          sync.Mutex
	tracks      map[*rdf.Graph]int
	firstStart  time.Duration // when the earliest call began; -1 before any
	first       time.Duration // busy in full materializations, all workers
	incremental time.Duration // busy in seeded closes, all workers
	derived     int
}

func (e *timedEngine) Name() string { return e.inner.Name() }

func (e *timedEngine) call(name string, g *rdf.Graph, first bool, f func() (int, error)) (int, error) {
	e.mu.Lock()
	track, ok := e.tracks[g]
	if !ok {
		track = len(e.tracks) + 1
		e.tracks[g] = track
	}
	e.mu.Unlock()
	id := e.tr.begin(name, e.parent, track)
	n, err := f()
	sp := e.tr.end(id)
	e.mu.Lock()
	if e.firstStart < 0 || sp.Start < e.firstStart {
		e.firstStart = sp.Start
	}
	if first {
		e.first += sp.dur()
	} else {
		e.incremental += sp.dur()
	}
	e.derived += n
	e.mu.Unlock()
	return n, err
}

func (e *timedEngine) Materialize(g *rdf.Graph, rs []rules.Rule) int {
	n, _ := e.call("reason.materialize", g, true, func() (int, error) { return e.inner.Materialize(g, rs), nil })
	return n
}

func (e *timedEngine) MaterializeCtx(ctx context.Context, g *rdf.Graph, rs []rules.Rule) (int, error) {
	return e.call("reason.materialize", g, true, func() (int, error) { return e.inner.MaterializeCtx(ctx, g, rs) })
}

func (e *timedEngine) MaterializeFrom(g *rdf.Graph, rs []rules.Rule, seeds []rdf.Triple) int {
	n, _ := e.call("reason.materialize_from", g, false, func() (int, error) { return e.inner.MaterializeFrom(g, rs, seeds), nil })
	return n
}

func (e *timedEngine) MaterializeFromCtx(ctx context.Context, g *rdf.Graph, rs []rules.Rule, seeds []rdf.Triple) (int, error) {
	return e.call("reason.materialize_from", g, false, func() (int, error) { return e.inner.MaterializeFromCtx(ctx, g, rs, seeds) })
}

// timedTransport is the timing shim around the run's transport.
type timedTransport struct {
	inner  transport.Transport
	tr     *tracer
	parent int

	mu      sync.Mutex
	send    time.Duration
	recv    time.Duration
	triples int
	batches int
	lastEnd time.Duration // end of the latest Recv: when the last worker finished
}

func (t *timedTransport) Name() string { return t.inner.Name() }

func (t *timedTransport) Send(ctx context.Context, round, from, to int, ts []rdf.Triple) error {
	id := t.tr.begin("transport.send", t.parent, from+1)
	err := t.inner.Send(ctx, round, from, to, ts)
	sp := t.tr.end(id)
	t.mu.Lock()
	t.send += sp.dur()
	t.triples += len(ts)
	t.batches++
	t.mu.Unlock()
	return err
}

func (t *timedTransport) Recv(ctx context.Context, round, to int) ([]rdf.Triple, error) {
	id := t.tr.begin("transport.recv", t.parent, to+1)
	ts, err := t.inner.Recv(ctx, round, to)
	sp := t.tr.end(id)
	t.mu.Lock()
	t.recv += sp.dur()
	if sp.End > t.lastEnd {
		t.lastEnd = sp.End
	}
	t.mu.Unlock()
	return ts, err
}

func (t *timedTransport) Close() error { return t.inner.Close() }

// ownerRouter is the data-partitioning routing rule of the paper's §IV, as
// core.Materialize applies it: a derived triple goes to the owner of its
// subject and the owner of its object.
type ownerRouter struct{ owner map[rdf.ID]int }

func (r ownerRouter) Destinations(t rdf.Triple, from int) []int {
	var out []int
	if p, ok := r.owner[t.S]; ok && p != from {
		out = append(out, p)
	}
	if q, ok := r.owner[t.O]; ok && q != from {
		if len(out) == 0 || out[0] != q {
			out = append(out, q)
		}
	}
	return out
}

// parseOnly is the ntriples Reader loop with nothing behind it.
func parseOnly(nt []byte) (int, error) {
	rd := ntriples.NewReader(bytes.NewReader(nt))
	n := 0
	for {
		if _, err := rd.Next(); err != nil {
			if err == io.EOF {
				return n, nil
			}
			return n, err
		}
		n++
	}
}

// tracedClosure is the same pipeline assembled from the public pieces
// core.Materialize and serve.Build use, with a span around each call into a
// layer. It returns the closure and this repeat's per-layer numbers; the
// stage numbers (and, for k workers, the per-worker means) add up to the
// repeat's wall time, which is what lets them be read as shares of
// closure_s.
func tracedClosure(tr *tracer, w workload, nt []byte) (closureOut, map[string]float64, error) {
	m := map[string]float64{}
	tr.nextRun()

	// The parse-only pass is measured on its own, outside the pipeline's
	// root span: ReadGraph below parses again, and the store's share of it
	// is the difference.
	id := tr.begin("ntriples.parse", -1, 0)
	statements, err := parseOnly(nt)
	parse := tr.end(id).dur()
	if err != nil {
		return closureOut{}, nil, err
	}

	root := tr.begin("closure", -1, 0)
	stage := func(name string, f func(id int) error) (time.Duration, error) {
		id := tr.begin(name, root, 0)
		err := f(id)
		return tr.end(id).dur(), err
	}

	dict, g := rdf.NewDict(), rdf.NewGraph()
	read, err := stage("ntriples.readgraph", func(int) error {
		_, err := ntriples.ReadGraph(bytes.NewReader(nt), dict, g)
		return err
	})
	if err != nil {
		return closureOut{}, nil, err
	}

	var compiled *owlhorst.Compiled
	var instance []rdf.Triple
	compile, err := stage("owlhorst.compile", func(int) error {
		compiled = owlhorst.Compile(dict, g)
		instance = owlhorst.SplitInstance(dict, g)
		return reason.ValidateRules(compiled.InstanceRules)
	})
	if err != nil {
		return closureOut{}, nil, err
	}

	engine := &timedEngine{inner: reason.Forward{Threads: w.threads}, tr: tr, tracks: map[*rdf.Graph]int{}, firstStart: -1}
	var closed *rdf.Graph
	var build, part, run time.Duration
	var tt *timedTransport
	var cres *cluster.Result
	if w.workers == 1 {
		build, _ = stage("rdf.build", func(int) error {
			closed = rdf.NewGraphCap(2 * (len(instance) + compiled.Schema.Len()))
			closed.AddAll(instance)
			closed.Union(compiled.Schema)
			return nil
		})
		engine.parent = root
		engine.Materialize(closed, compiled.InstanceRules)
	} else {
		var assigns []cluster.Assignment
		var router ownerRouter
		part, err = stage("partition.partition", func(int) error {
			in := &partition.Input{Dict: dict, Instance: instance,
				Skip: owlhorst.SchemaElements(dict, compiled.Schema)}
			var pol partition.Policy = partition.HashPolicy{}
			if w.policy == core.GraphPolicy {
				pol = partition.GraphPolicy{
					Opts:        gpart.Options{Seed: partitionSeed, Imbalance: 0.02, RefinePasses: 12},
					CostWeights: closureCostWeights(instance, compiled),
				}
			}
			pres, err := partition.Partition(in, w.workers, pol)
			if err != nil {
				return err
			}
			pm := partition.ComputeMetrics(in, pres)
			m["partition.ir"], m["partition.bal"] = pm.IR, pm.Bal
			schema := compiled.Schema.Triples()
			assigns = make([]cluster.Assignment, w.workers)
			for i := range assigns {
				base := make([]rdf.Triple, 0, len(pres.Parts[i])+len(schema))
				base = append(append(base, pres.Parts[i]...), schema...)
				assigns[i] = cluster.Assignment{Base: base, Rules: compiled.InstanceRules}
			}
			router = ownerRouter{owner: pres.Owner}
			return nil
		})
		if err != nil {
			return closureOut{}, nil, err
		}
		run, err = stage("cluster.run", func(runSpan int) error {
			tcp, err := transport.NewTCP(w.workers, dict)
			if err != nil {
				return err
			}
			defer tcp.Close()
			engine.parent = runSpan
			tt = &timedTransport{inner: tcp, tr: tr, parent: runSpan}
			cres, err = cluster.Run(cluster.Config{Engine: engine, Transport: tt, Router: router,
				Mode: cluster.Concurrent}, assigns)
			if err != nil {
				return err
			}
			closed = cres.Graph
			return nil
		})
		if err != nil {
			return closureOut{}, nil, err
		}
	}

	var sink countingWriter
	write, err := stage("ntriples.write", func(int) error { return ntriples.WriteGraph(&sink, dict, closed) })
	if err != nil {
		return closureOut{}, nil, err
	}
	total := tr.end(root).dur()

	k := float64(w.workers)
	m["ntriples.parse_s"] = secs(parse)
	m["ntriples.statements"] = float64(statements)
	m["ntriples.write_s"] = secs(write)
	m["rdf.load_s"] = secs(read-parse) + secs(build)
	m["rdf.add_ns_per_triple"] = float64(read-parse+build) / float64(statements)
	m["owlhorst.compile_s"] = secs(compile)
	m["partition.partition_s"] = secs(part)
	m["reason.first_s"] = secs(engine.first) / k
	m["reason.incremental_s"] = secs(engine.incremental) / k
	m["reason.derived"] = float64(engine.derived)
	m["reason.derived_per_s"] = float64(engine.derived) / secs(engine.first+engine.incremental)
	if tt != nil {
		// Workers start together inside cluster.Run and leave together
		// after the last round's receive, so one wall covers them all: from
		// the first engine call to the last Recv. What a worker did not
		// spend in the engine or the transport it spent waiting at the
		// barrier or routing its delta.
		workerWall := tt.lastEnd - engine.firstStart
		busy := engine.first + engine.incremental + tt.send + tt.recv
		m["transport.send_s"] = secs(tt.send) / k
		m["transport.recv_s"] = secs(tt.recv) / k
		m["transport.triples_sent"] = float64(tt.triples)
		m["transport.batches"] = float64(tt.batches)
		m["cluster.wait_s"] = secs(workerWall) - secs(busy)/k
		var sync time.Duration
		for _, t := range cres.PerWorker {
			sync += t.Sync
		}
		m["cluster.sync_s"] = secs(sync) / k
		m["cluster.aggregate_s"] = secs(cres.PerWorker[0].Aggregate)
		m["cluster.other_s"] = secs(run-workerWall) - m["cluster.aggregate_s"]
		m["cluster.rounds"] = float64(cres.Rounds)
	}
	m["trace.layers_sum_s"] = m["ntriples.parse_s"] + m["rdf.load_s"] + m["owlhorst.compile_s"] +
		m["partition.partition_s"] + m["reason.first_s"] + m["reason.incremental_s"] +
		m["transport.send_s"] + m["transport.recv_s"] + m["cluster.wait_s"] +
		m["cluster.aggregate_s"] + m["cluster.other_s"] + m["ntriples.write_s"]
	m["trace.traced_s"] = secs(total)
	return closureOut{dict: dict, graph: closed, written: sink.n}, m, nil
}

// closureCostWeights is the a-priori cost model core.Materialize gives the
// graph policy: a node's reasoning load is 2 plus its degree in the forward
// closure of the instance data. Its cost is partitioning time.
func closureCostWeights(instance []rdf.Triple, compiled *owlhorst.Compiled) map[rdf.ID]int64 {
	g := rdf.NewGraphCap(2 * len(instance))
	g.AddAll(instance)
	g.Union(compiled.Schema)
	reason.Forward{}.Materialize(g, compiled.InstanceRules)
	w := map[rdf.ID]int64{}
	for _, t := range g.TriplesSince(0) {
		w[t.S]++
		w[t.O]++
	}
	for id := range w {
		w[id] += 2
	}
	return w
}

// serialReasonBusy materializes the same KB with one thread and returns the
// engine's busy time: the numerator of reason.threads_speedup.
func serialReasonBusy(nt []byte) (time.Duration, error) {
	dict, g := rdf.NewDict(), rdf.NewGraph()
	if _, err := ntriples.ReadGraph(bytes.NewReader(nt), dict, g); err != nil {
		return 0, err
	}
	compiled := owlhorst.Compile(dict, g)
	instance := owlhorst.SplitInstance(dict, g)
	closed := rdf.NewGraphCap(2 * (len(instance) + compiled.Schema.Len()))
	closed.AddAll(instance)
	closed.Union(compiled.Schema)
	runtime.GC()
	t0 := time.Now()
	reason.Forward{}.Materialize(closed, compiled.InstanceRules)
	return time.Since(t0), nil
}

// traceBatch is the traced run: untraced and traced closures alternate until
// the measuring time is used up, so the two medians come from the same
// minutes of the same process and their difference is the tracing overhead.
func traceBatch(w workload, in *batchInput, seconds float64, tr *tracer, rep *report) {
	product := func() (closureOut, error) { return productClosure(w, in.nt) }
	if _, err := timeClosure(in, product); err != nil {
		rep.fail("warm-up closure: %v", err)
	}
	rep.attempted++
	var untraced, serialBusy []float64
	perRepeat := map[string][]float64{}
	start := time.Now()
	for len(untraced) < 2 || time.Since(start).Seconds() < seconds {
		d, err := timeClosure(in, product)
		rep.attempted++
		if err != nil {
			rep.fail("untraced closure: %v", err)
		}
		untraced = append(untraced, d.Seconds())

		var m map[string]float64
		_, err = timeClosure(in, func() (closureOut, error) {
			out, layers, err := tracedClosure(tr, w, in.nt)
			m = layers
			return out, err
		})
		rep.attempted++
		if err != nil {
			rep.fail("traced closure: %v", err)
			continue
		}
		for k, v := range m {
			perRepeat[k] = append(perRepeat[k], v)
		}
		if w.threads > 1 {
			busy, err := serialReasonBusy(in.nt)
			if err != nil {
				rep.fail("serial reason: %v", err)
				continue
			}
			serialBusy = append(serialBusy, busy.Seconds())
		}
	}
	for k, vs := range perRepeat {
		rep.layer[k] = median(vs)
	}
	if len(serialBusy) > 0 && rep.layer["reason.first_s"] > 0 {
		rep.layer["reason.threads_speedup"] = median(serialBusy) / rep.layer["reason.first_s"]
	}
	rep.layer["trace.untraced_s"] = median(untraced)
	rep.layer["trace.overhead_frac"] = rep.layer["trace.traced_s"]/median(untraced) - 1
}
