package cluster

import (
	"context"
	"fmt"
	"testing"

	"powl/internal/rdf"
	"powl/internal/reason"
	"powl/internal/rules"
	"powl/internal/transport"
)

// chainFixture builds a transitive chain split across k workers by node
// ownership, so that closing it requires multiple exchange rounds.
type chainFixture struct {
	dict   *rdf.Dict
	p      rdf.ID
	nodes  []rdf.ID
	owner  map[rdf.ID]int
	rules  []rules.Rule
	closed *rdf.Graph // expected closure
}

func newChainFixture(t *testing.T, n, k int) *chainFixture {
	t.Helper()
	f := &chainFixture{dict: rdf.NewDict(), owner: map[rdf.ID]int{}}
	f.p = f.dict.InternIRI("http://t/p")
	f.nodes = make([]rdf.ID, n)
	full := rdf.NewGraph()
	for i := range f.nodes {
		f.nodes[i] = f.dict.InternIRI(fmt.Sprintf("http://t/n%02d", i))
		// Contiguous blocks: cuts only at block boundaries.
		f.owner[f.nodes[i]] = i * k / n
	}
	for i := 0; i+1 < n; i++ {
		full.Add(rdf.Triple{S: f.nodes[i], P: f.p, O: f.nodes[i+1]})
	}
	f.rules = rules.MustParse(
		"@prefix t: <http://t/> .\n[tr: (?x t:p ?y) (?y t:p ?z) -> (?x t:p ?z)]", f.dict)
	f.closed = full.Clone()
	reason.Forward{}.Materialize(f.closed, f.rules)
	return f
}

// assignments distributes the chain's base triples by ownership, as the data
// partitioner would.
func (f *chainFixture) assignments(k int) []Assignment {
	parts := make([][]rdf.Triple, k)
	for i := 0; i+1 < len(f.nodes); i++ {
		tr := rdf.Triple{S: f.nodes[i], P: f.p, O: f.nodes[i+1]}
		po := f.owner[tr.S]
		qo := f.owner[tr.O]
		parts[po] = append(parts[po], tr)
		if qo != po {
			parts[qo] = append(parts[qo], tr)
		}
	}
	out := make([]Assignment, k)
	for i := range out {
		out[i] = Assignment{Base: parts[i], Rules: f.rules}
	}
	return out
}

// ownerRouter is the data strategy's routing rule over an owner map, and
// names each triple's home, so runs under it aggregate by concatenation.
type ownerRouter struct {
	owner map[rdf.ID]int
}

func (r ownerRouter) Home(t rdf.Triple) int {
	if p, ok := r.owner[t.S]; ok {
		return p
	}
	if q, ok := r.owner[t.O]; ok {
		return q
	}
	return -1
}

func (r ownerRouter) Destinations(t rdf.Triple, from int) []int {
	var out []int
	if p, ok := r.owner[t.S]; ok && p != from {
		out = append(out, p)
	}
	if q, ok := r.owner[t.O]; ok && q != from && (len(out) == 0 || out[0] != q) {
		out = append(out, q)
	}
	return out
}

func runModes(t *testing.T, k int, tr transport.Transport, f *chainFixture, mode Mode) *Result {
	t.Helper()
	res, err := Run(Config{
		Engine:    reason.Forward{},
		Transport: tr,
		Router:    ownerRouter{f.owner},
		Mode:      mode,
	}, f.assignments(k))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestChainClosesAcrossWorkers(t *testing.T) {
	for _, mode := range []Mode{Concurrent, Simulated} {
		for _, k := range []int{2, 3, 4} {
			f := newChainFixture(t, 12, k)
			res := runModes(t, k, transport.NewMem(), f, mode)
			if !res.Graph.Equal(f.closed) {
				t.Fatalf("mode=%v k=%d: closure %d != expected %d; missing=%v",
					mode, k, res.Graph.Len(), f.closed.Len(), f.closed.Diff(res.Graph))
			}
			if res.Rounds < 2 {
				t.Errorf("mode=%v k=%d: chain closure cannot finish in %d round", mode, k, res.Rounds)
			}
		}
	}
}

func TestAllTransports(t *testing.T) {
	for _, mk := range []func(*rdf.Dict) (transport.Transport, error){
		func(*rdf.Dict) (transport.Transport, error) { return transport.NewMem(), nil },
		func(d *rdf.Dict) (transport.Transport, error) { return transport.NewFile(t.TempDir(), d) },
		func(d *rdf.Dict) (transport.Transport, error) { return transport.NewTCP(3, d) },
	} {
		f := newChainFixture(t, 10, 3)
		tr, err := mk(f.dict)
		if err != nil {
			t.Fatal(err)
		}
		res := runModes(t, 3, tr, f, Concurrent)
		if !res.Graph.Equal(f.closed) {
			t.Fatalf("%s: closure mismatch", tr.Name())
		}
		tr.Close()
	}
}

func TestSingleWorkerDegeneratesToSerial(t *testing.T) {
	f := newChainFixture(t, 8, 1)
	res := runModes(t, 1, transport.NewMem(), f, Concurrent)
	if !res.Graph.Equal(f.closed) {
		t.Fatal("k=1 closure mismatch")
	}
	if res.Rounds != 1 {
		t.Fatalf("k=1 should terminate after 1 round, took %d", res.Rounds)
	}
	if res.PerWorker[0].Sent != 0 {
		t.Fatalf("k=1 sent %d triples", res.PerWorker[0].Sent)
	}
}

func TestTimingsArepopulated(t *testing.T) {
	f := newChainFixture(t, 16, 4)
	res := runModes(t, 4, transport.NewMem(), f, Simulated)
	for i, tm := range res.PerWorker {
		if tm.Reason <= 0 {
			t.Errorf("worker %d: zero reason time", i)
		}
		if tm.Rounds != res.Rounds {
			t.Errorf("worker %d: rounds %d != %d", i, tm.Rounds, res.Rounds)
		}
	}
	if res.Elapsed <= 0 {
		t.Error("zero elapsed")
	}
	totalSent := 0
	for _, tm := range res.PerWorker {
		totalSent += tm.Sent
	}
	if totalSent == 0 {
		t.Error("no tuples exchanged on a cut chain")
	}
	if len(res.OutputSizes) != 4 {
		t.Error("output sizes missing")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{}, nil); err == nil {
		t.Error("empty assignments accepted")
	}
	if _, err := Run(Config{}, make([]Assignment, 2)); err == nil {
		t.Error("nil engine/transport/router accepted")
	}
}

func TestMaxRoundsCapStopsRunaway(t *testing.T) {
	f := newChainFixture(t, 12, 3)
	res, err := Run(Config{
		Engine:    reason.Forward{},
		Transport: transport.NewMem(),
		Router:    ownerRouter{f.owner},
		Mode:      Simulated,
		MaxRounds: 1,
	}, f.assignments(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 1 {
		t.Fatalf("rounds = %d with cap 1", res.Rounds)
	}
	// The result is incomplete (fine: the cap is a safety net).
	if res.Graph.Equal(f.closed) {
		t.Log("closure completed within cap (chain short enough); not an error")
	}
}

// TestBarrier exercises the reusable barrier directly.
func TestBarrier(t *testing.T) {
	b := newBarrier(3)
	results := make(chan int, 3)
	for i := 1; i <= 3; i++ {
		go func(c int) {
			sum, ok, _ := b.syncCtx(context.Background(), c)
			if !ok {
				results <- -1
				return
			}
			results <- sum
		}(i)
	}
	for i := 0; i < 3; i++ {
		if got := <-results; got != 6 {
			t.Fatalf("barrier sum = %d, want 6", got)
		}
	}
	// Second generation reuses the barrier.
	for i := 0; i < 3; i++ {
		go func() {
			sum, _, _ := b.syncCtx(context.Background(), 1)
			results <- sum
		}()
	}
	for i := 0; i < 3; i++ {
		if got := <-results; got != 3 {
			t.Fatalf("second generation sum = %d, want 3", got)
		}
	}
}

func TestBarrierAbort(t *testing.T) {
	b := newBarrier(2)
	done := make(chan bool, 1)
	go func() {
		_, ok, _ := b.syncCtx(context.Background(), 1)
		done <- ok
	}()
	b.abort()
	if ok := <-done; ok {
		t.Fatal("aborted barrier returned ok")
	}
	if _, ok, _ := b.syncCtx(context.Background(), 1); ok {
		t.Fatal("sync after abort returned ok")
	}
}

// TestIncrementalRoundsMatchFull: a run whose engine closes each round
// incrementally over the received seeds produces the same closure as one
// that re-materializes fully every round (invariant 5, through Run).
// fullOnlyEngine is that second engine: its incremental close ignores the
// seeds and re-runs the full materialization.
type fullOnlyEngine struct{ reason.Engine }

func (e fullOnlyEngine) MaterializeFromCtx(ctx context.Context, g *rdf.Graph, rs []rules.Rule, _ []rdf.Triple) (int, error) {
	return e.MaterializeCtx(ctx, g, rs)
}

func TestIncrementalRoundsMatchFull(t *testing.T) {
	f := newChainFixture(t, 14, 4)
	fast := runModes(t, 4, transport.NewMem(), f, Simulated)

	res, err := Run(Config{
		Engine:    fullOnlyEngine{reason.Forward{}},
		Transport: transport.NewMem(),
		Router:    ownerRouter{f.owner},
		Mode:      Simulated,
	}, f.assignments(4))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Graph.Equal(fast.Graph) {
		t.Fatal("incremental and full-rematerialization runs disagree")
	}
}
