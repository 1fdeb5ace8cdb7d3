package loadgen

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"powl/internal/rdf"
	"powl/internal/serve"
	"powl/internal/vocab"
)

func testKB(nStudents int) *serve.KB {
	dict := rdf.NewDict()
	base := rdf.NewGraph()
	typ := dict.InternIRI(vocab.RDFType)
	sub := dict.InternIRI(vocab.RDFSSubClassOf)
	student := dict.InternIRI("http://t/Student")
	person := dict.InternIRI("http://t/Person")
	base.Add(rdf.Triple{S: student, P: sub, O: person})
	for i := 0; i < nStudents; i++ {
		s := dict.InternIRI(fmt.Sprintf("http://t/s%d", i))
		base.Add(rdf.Triple{S: s, P: typ, O: student})
	}
	return serve.Build(dict, base, serve.BuildConfig{})
}

// newTestServer wraps serve.New, failing the test on a validation error —
// the fixture rule set is expected to compile.
func newTestServer(t *testing.T, kb *serve.KB, cfg serve.Config) *serve.Server {
	t.Helper()
	s, err := serve.New(kb, cfg)
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	return s
}

func canonical(n int) []CheckedQuery {
	return []CheckedQuery{
		{Name: "persons", Text: `SELECT ?x WHERE { ?x a <http://t/Person> . }`, Want: n},
		{Name: "students", Text: `SELECT ?x WHERE { ?x a <http://t/Student> . }`, Want: n},
	}
}

// TestLoadgenChaos is the in-process chaos drill: bursts overflow a tiny
// admission queue (shedding must trigger), pathological cross joins are
// injected (the watchdog must cancel them), probe inserts interleave with
// reads — all under -race via the Local client — and after the drain the
// server must have dropped nothing and the canonical answers must never
// have wavered.
func TestLoadgenChaos(t *testing.T) {
	const n = 300
	s := newTestServer(t, testKB(n), serve.Config{
		MaxInflight: 4,
		QueueDepth:  2, // tiny on purpose: bursts must shed
		Deadline:    2 * time.Second,
		SlowQuery:   25 * time.Millisecond,
	})

	g := New(Local{S: s}, Options{
		Workers:     8,
		Duration:    1500 * time.Millisecond,
		Seed:        42,
		Queries:     canonical(n),
		SlowQuery:   `SELECT ?x ?y WHERE { ?x a ?c . ?y a ?d . }`,
		SlowEvery:   40,
		InsertEvery: 15,
		BurstEvery:  200 * time.Millisecond,
		BurstSize:   64,
	})
	rep := g.Run(context.Background())
	t.Logf("loadgen: %s", rep)

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	st := s.Stats()

	if rep.OK == 0 {
		t.Fatal("no successful queries at all")
	}
	if rep.Wrong != 0 {
		t.Fatalf("wrong answers under chaos: %d", rep.Wrong)
	}
	if rep.Failed != 0 {
		t.Fatalf("unexpected failures: %d", rep.Failed)
	}
	if rep.Shed == 0 {
		t.Fatal("bursts never tripped shedding — admission control untested")
	}
	if st.Dropped != 0 {
		t.Fatalf("server dropped %d admitted queries", st.Dropped)
	}
	if st.WatchdogCancelled == 0 && rep.Timeout == 0 {
		t.Fatal("no slow query was ever cancelled — watchdog untested")
	}
	if rep.P99Millis >= 2000 {
		t.Fatalf("p99 = %.1fms, at or above the 2s deadline — degradation not graceful", rep.P99Millis)
	}
	// Probe inserts accepted by the server must all have been applied by
	// the drain: batches in stats == batches the writer published.
	if st.InsertBatches == 0 && rep.Inserts > 0 {
		t.Fatalf("loadgen had %d accepted inserts but the writer applied none", rep.Inserts)
	}
}

// churnKB is testKB plus the churn axiom: every probe triple asserted under
// the churn predicate derives a marker triple, so loadgen deletes force real
// DRed retraction cascades in the writer.
func churnKB(nStudents int) *serve.KB {
	dict := rdf.NewDict()
	base := rdf.NewGraph()
	typ := dict.InternIRI(vocab.RDFType)
	sub := dict.InternIRI(vocab.RDFSSubClassOf)
	student := dict.InternIRI("http://t/Student")
	person := dict.InternIRI("http://t/Person")
	base.Add(rdf.Triple{S: student, P: sub, O: person})
	for i := 0; i < nStudents; i++ {
		s := dict.InternIRI(fmt.Sprintf("http://t/s%d", i))
		base.Add(rdf.Triple{S: s, P: typ, O: student})
	}
	base.Add(rdf.Triple{
		S: dict.InternIRI(ChurnBatchPredicate),
		P: dict.InternIRI(vocab.RDFSSubPropertyOf),
		O: dict.InternIRI("http://loadgen.powl/marker"),
	})
	return serve.Build(dict, base, serve.BuildConfig{})
}

// TestLoadgenChurn is the sustained insert/delete churn drill: workers
// interleave canonical reads with probe inserts and window-lagged deletes of
// their own earlier batches, the churn axiom makes every insert derive a
// marker (so every delete is a DRed cascade, not a leaf tombstone), and the
// canonical answers must hold on every single read while the probe
// namespace churns underneath them.
func TestLoadgenChurn(t *testing.T) {
	const n = 200
	s := newTestServer(t, churnKB(n), serve.Config{
		MaxInflight: 4,
		Deadline:    2 * time.Second,
	})

	g := New(Local{S: s}, Options{
		Workers:      6,
		Duration:     1500 * time.Millisecond,
		Seed:         11,
		Queries:      canonical(n),
		InsertEvery:  4,
		InsertSize:   6,
		DeleteEvery:  7,
		DeleteWindow: 2,
	})
	rep := g.Run(context.Background())
	t.Logf("loadgen: %s", rep)

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	st := s.Stats()

	if rep.Wrong != 0 {
		t.Fatalf("canonical answers wavered under churn: wrong=%d", rep.Wrong)
	}
	if rep.Failed != 0 {
		t.Fatalf("unexpected failures under churn: %d", rep.Failed)
	}
	if rep.Deletes == 0 {
		t.Fatal("churn drill never deleted — DeleteEvery/DeleteWindow misconfigured")
	}
	if st.DeleteBatches != rep.Deletes {
		t.Fatalf("server applied %d delete batches, loadgen scored %d", st.DeleteBatches, rep.Deletes)
	}
	if st.Dropped != 0 {
		t.Fatalf("server dropped %d writes under churn", st.Dropped)
	}
	// The axiom makes each deleted probe triple take a derived marker with
	// it: retraction must exceed the asserted deletions alone.
	if st.RetractedTriples <= st.DeletedTriples {
		t.Fatalf("retracted %d <= deleted %d — DRed cascades never fired",
			st.RetractedTriples, st.DeletedTriples)
	}

	// The drained server's probe namespace must be exactly the surviving
	// batches: one derived marker per inserted-minus-deleted churn triple.
	marker := s.Dict().InternIRI("http://loadgen.powl/marker")
	got := s.Snapshot().Match(rdf.Wildcard, marker, rdf.Wildcard)
	want := int(rep.InsertedNT - rep.DeletedNT)
	if len(got) != want {
		t.Fatalf("probe markers after drain = %d, want %d (inserted %d - deleted %d)",
			len(got), want, rep.InsertedNT, rep.DeletedNT)
	}
}

// swapClient routes to whichever server is currently alive; Swap models a
// kill+restart. While the pointer is nil every call reports unavailability.
type swapClient struct {
	cur atomic.Pointer[serve.Server]
}

func (c *swapClient) get() (Local, error) {
	s := c.cur.Load()
	if s == nil {
		return Local{}, fmt.Errorf("%w: server down", ErrUnavailable)
	}
	return Local{S: s}, nil
}

func (c *swapClient) Query(ctx context.Context, text string) (int, error) {
	l, err := c.get()
	if err != nil {
		return 0, err
	}
	return l.Query(ctx, text)
}

func (c *swapClient) Insert(ctx context.Context, nt string) error {
	l, err := c.get()
	if err != nil {
		return err
	}
	return l.Insert(ctx, nt)
}

func (c *swapClient) Delete(ctx context.Context, nt string) error {
	l, err := c.get()
	if err != nil {
		return err
	}
	return l.Delete(ctx, nt)
}

// TestLoadgenKillRestart drains the server mid-run and brings up a fresh
// one: clients must ride out the gap on retries (ErrUnavailable), nothing
// in-flight may be dropped by either incarnation, and canonical answers
// must be correct on both sides of the restart.
func TestLoadgenKillRestart(t *testing.T) {
	const n = 200
	cfg := serve.Config{MaxInflight: 4, Deadline: 2 * time.Second}
	first := newTestServer(t, testKB(n), cfg)
	var c swapClient
	c.cur.Store(first)

	g := New(&c, Options{
		Workers:     6,
		Duration:    1500 * time.Millisecond,
		Seed:        7,
		Queries:     canonical(n),
		InsertEvery: 10,
		RetryWindow: 5 * time.Second,
	})

	var chaos sync.WaitGroup
	chaos.Add(1)
	var second *serve.Server
	go func() {
		defer chaos.Done()
		time.Sleep(400 * time.Millisecond)
		c.cur.Store(nil) // clients now see unavailability
		if err := first.Shutdown(context.Background()); err != nil {
			t.Errorf("first shutdown: %v", err)
		}
		time.Sleep(200 * time.Millisecond) // outage window
		s2, err := serve.New(testKB(n), cfg)
		if err != nil {
			t.Errorf("restart: %v", err)
			return
		}
		second = s2
		c.cur.Store(second)
	}()

	rep := g.Run(context.Background())
	chaos.Wait()
	t.Logf("loadgen: %s", rep)

	if err := second.Shutdown(context.Background()); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
	if rep.Wrong != 0 {
		t.Fatalf("wrong answers across restart: %d", rep.Wrong)
	}
	if rep.Failed != 0 {
		t.Fatalf("failures across restart: %d (retries should have absorbed the outage)", rep.Failed)
	}
	if rep.Retried == 0 {
		t.Fatal("no retries recorded — the outage window was never observed")
	}
	if d := first.Stats().Dropped; d != 0 {
		t.Fatalf("first incarnation dropped %d", d)
	}
	if d := second.Stats().Dropped; d != 0 {
		t.Fatalf("second incarnation dropped %d", d)
	}
}
