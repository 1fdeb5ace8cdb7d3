package serve

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"powl/internal/rdf"
	"powl/internal/rules"
	"powl/internal/vocab"
)

// testKB builds a small ontology (Student ⊑ Person) plus nStudents typed
// individuals and materializes it — enough schema for the compiler to emit
// instance rules, enough data for queries to have stable answers.
func testKB(nStudents int) *KB {
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
	return Build(dict, base, BuildConfig{})
}

// newTestServer wraps New, failing the test on a validation error — every
// fixture rule set in this package is expected to compile.
func newTestServer(t *testing.T, kb *KB, cfg Config) *Server {
	t.Helper()
	s, err := New(kb, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

const (
	personQuery = `SELECT ?x WHERE { ?x a <http://t/Person> . }`
	// crossQuery is pathological: two patterns sharing no variable — a
	// full cross product over every typed individual.
	crossQuery = `SELECT ?x ?y WHERE { ?x a ?c . ?y a ?d . }`
)

func TestServeBasicQueryAndStats(t *testing.T) {
	s := newTestServer(t, testKB(10), Config{})
	defer s.Shutdown(context.Background())

	resp, err := s.Query(context.Background(), personQuery)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if len(resp.Result.Rows) != 10 {
		t.Fatalf("got %d rows, want 10", len(resp.Result.Rows))
	}
	st := s.Stats()
	if st.Admitted != 1 || st.Completed != 1 || st.Dropped != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestServeShedsUnderBurst pins the admission state machine: with 1 slot
// and queue depth 1, a slot-holder plus a queued waiter means every further
// arrival must shed immediately — not block, not queue.
func TestServeShedsUnderBurst(t *testing.T) {
	s := newTestServer(t, testKB(4), Config{MaxInflight: 1, QueueDepth: 1, Deadline: 5 * time.Second})
	defer s.Shutdown(context.Background())

	block := make(chan struct{})
	occupied := make(chan struct{})
	s.testHook = func(text string) {
		if strings.Contains(text, "BLOCKER") {
			close(occupied)
			<-block
		}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.Query(context.Background(), personQuery+" # BLOCKER")
	}()
	<-occupied

	// Fill the one queue spot with a query that will wait.
	queued := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := s.Query(context.Background(), personQuery)
		queued <- err
	}()
	// Wait until the waiter actually occupies the queue.
	for i := 0; len(s.waiters) == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	if len(s.waiters) == 0 {
		t.Fatal("waiter never queued")
	}

	// Slots full, queue full: these must shed instantly.
	for i := 0; i < 5; i++ {
		_, err := s.Query(context.Background(), personQuery)
		if !errors.Is(err, ErrShed) {
			t.Fatalf("arrival %d: err = %v, want ErrShed", i, err)
		}
	}
	close(block)
	wg.Wait()
	if err := <-queued; err != nil {
		t.Fatalf("queued query should have been admitted after release: %v", err)
	}
	st := s.Stats()
	if st.Shed != 5 {
		t.Fatalf("shed = %d, want 5", st.Shed)
	}
	if st.Dropped != 0 {
		t.Fatalf("dropped = %d, want 0", st.Dropped)
	}
}

// TestServeWatchdogCancelsSlowQuery runs a pathological cross join under a
// tight watchdog while healthy queries run alongside: the offender must be
// cancelled, the healthy queries unaffected.
func TestServeWatchdogCancelsSlowQuery(t *testing.T) {
	s := newTestServer(t, testKB(2000), Config{
		MaxInflight: 4, Deadline: 30 * time.Second, SlowQuery: 30 * time.Millisecond,
	})
	defer s.Shutdown(context.Background())

	done := make(chan error, 1)
	go func() {
		_, err := s.Query(context.Background(), crossQuery)
		done <- err
	}()
	// Healthy traffic keeps flowing while the offender burns its slot.
	for i := 0; i < 20; i++ {
		resp, err := s.Query(context.Background(), personQuery)
		if err != nil || len(resp.Result.Rows) != 2000 {
			t.Fatalf("healthy query %d: rows=%d err=%v", i, len(resp.Result.Rows), err)
		}
	}
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cross join finished; watchdog never needed — enlarge fixture")
		}
		if !errors.Is(err, ErrWatchdog) {
			t.Fatalf("offender err = %v, want ErrWatchdog", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("watchdog never cancelled the cross join")
	}
	if st := s.Stats(); st.WatchdogCancelled == 0 {
		t.Fatalf("stats = %+v, want WatchdogCancelled > 0", st)
	}
}

// TestServePanicIsolation injects a panic into one query; the server, its
// accounting, and concurrent queries must all survive.
func TestServePanicIsolation(t *testing.T) {
	s := newTestServer(t, testKB(10), Config{MaxInflight: 4})
	defer s.Shutdown(context.Background())
	s.testHook = func(text string) {
		if strings.Contains(text, "BOOM") {
			panic("injected")
		}
	}
	_, err := s.Query(context.Background(), personQuery+" # BOOM")
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("err = %v, want panic error", err)
	}
	resp, err := s.Query(context.Background(), personQuery)
	if err != nil || len(resp.Result.Rows) != 10 {
		t.Fatalf("server unhealthy after panic: rows=%d err=%v", len(resp.Result.Rows), err)
	}
	st := s.Stats()
	if st.Panicked != 1 || st.Dropped != 0 {
		t.Fatalf("stats = %+v, want Panicked=1 Dropped=0", st)
	}
}

// TestServeInsertVisibility inserts a batch and waits for the writer to
// publish an epoch containing it — including derived triples (the inserted
// Student must become a Person via the compiled rules).
func TestServeInsertVisibility(t *testing.T) {
	kb := testKB(3)
	s := newTestServer(t, kb, Config{})
	defer s.Shutdown(context.Background())
	d := kb.Dict
	typ := d.InternIRI(vocab.RDFType)
	student := d.InternIRI("http://t/Student")
	novel := d.InternIRI("http://t/novel")
	if err := s.Insert(context.Background(), []rdf.Triple{{S: novel, P: typ, O: student}}); err != nil {
		t.Fatalf("insert: %v", err)
	}
	deadline := time.After(5 * time.Second)
	for {
		resp, err := s.Query(context.Background(), personQuery)
		if err != nil {
			t.Fatalf("query: %v", err)
		}
		if len(resp.Result.Rows) == 4 {
			break // derived triple visible: insert closed under the rules
		}
		select {
		case <-deadline:
			t.Fatalf("derived triple never became visible; rows=%d", len(resp.Result.Rows))
		case <-time.After(time.Millisecond):
		}
	}
}

// TestServeRejectsUncompilableRules pins the validation contract: a KB
// whose rule set the engines cannot compile (here a rule binding more
// variables than the 64 join slots) must be refused by New with an error —
// not crash the writer loop after the server is live.
func TestServeRejectsUncompilableRules(t *testing.T) {
	kb := testKB(1)
	wide := rules.Rule{Name: "too-wide"}
	for v := 0; v < 66; v += 3 {
		wide.Body = append(wide.Body, rules.Atom{
			S: rules.Var(fmt.Sprintf("v%d", v)),
			P: rules.Var(fmt.Sprintf("v%d", v+1)),
			O: rules.Var(fmt.Sprintf("v%d", v+2)),
		})
	}
	wide.Head = []rules.Atom{{S: rules.Var("v0"), P: rules.Var("v1"), O: rules.Var("v2")}}
	kb.Rules = append(kb.Rules, wide)
	if _, err := New(kb, Config{}); err == nil {
		t.Fatal("New accepted a rule set the engines cannot compile")
	}
}

// TestServeInsertVisibilityThreaded is TestServeInsertVisibility with the
// writer's closures running the parallel fire loop: the KB carries
// Threads=4 into every MaterializeFrom the writer issues, and the derived
// triple must become visible exactly as in the serial case.
func TestServeInsertVisibilityThreaded(t *testing.T) {
	dict := rdf.NewDict()
	base := rdf.NewGraph()
	typ := dict.InternIRI(vocab.RDFType)
	sub := dict.InternIRI(vocab.RDFSSubClassOf)
	student := dict.InternIRI("http://t/Student")
	person := dict.InternIRI("http://t/Person")
	base.Add(rdf.Triple{S: student, P: sub, O: person})
	for i := 0; i < 3; i++ {
		base.Add(rdf.Triple{S: dict.InternIRI(fmt.Sprintf("http://t/s%d", i)), P: typ, O: student})
	}
	kb := Build(dict, base, BuildConfig{Threads: 4})
	s := newTestServer(t, kb, Config{})
	defer s.Shutdown(context.Background())
	novel := dict.InternIRI("http://t/novel")
	if err := s.Insert(context.Background(), []rdf.Triple{{S: novel, P: typ, O: student}}); err != nil {
		t.Fatalf("insert: %v", err)
	}
	deadline := time.After(5 * time.Second)
	for {
		resp, err := s.Query(context.Background(), personQuery)
		if err != nil {
			t.Fatalf("query: %v", err)
		}
		if len(resp.Result.Rows) == 4 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("derived triple never became visible; rows=%d", len(resp.Result.Rows))
		case <-time.After(time.Millisecond):
		}
	}
}

// TestServeDrain starts in-flight queries and inserts, shuts down, and
// checks the drain contract: everything admitted completes (Dropped == 0),
// accepted inserts are applied, late arrivals get ErrDraining.
func TestServeDrain(t *testing.T) {
	kb := testKB(50)
	s := newTestServer(t, kb, Config{MaxInflight: 4, Deadline: 10 * time.Second})

	release := make(chan struct{})
	started := make(chan struct{}, 4)
	s.testHook = func(text string) {
		if strings.Contains(text, "HOLD") {
			started <- struct{}{}
			<-release
		}
	}
	var inflight sync.WaitGroup
	var okCount atomic.Int64
	for i := 0; i < 3; i++ {
		inflight.Add(1)
		go func() {
			defer inflight.Done()
			resp, err := s.Query(context.Background(), personQuery+" # HOLD")
			// 50 before the pre-drain insert's epoch, 51 after — each query
			// pins whichever epoch is current when it resumes; both are
			// consistent answers.
			if err == nil && (len(resp.Result.Rows) == 50 || len(resp.Result.Rows) == 51) {
				okCount.Add(1)
			}
		}()
	}
	for i := 0; i < 3; i++ {
		<-started
	}
	// An insert accepted before the drain begins must survive it.
	d := kb.Dict
	typ := d.InternIRI(vocab.RDFType)
	student := d.InternIRI("http://t/Student")
	pre := d.InternIRI("http://t/pre-drain")
	if err := s.Insert(context.Background(), []rdf.Triple{{S: pre, P: typ, O: student}}); err != nil {
		t.Fatalf("pre-drain insert: %v", err)
	}

	drained := make(chan error, 1)
	go func() { drained <- s.Shutdown(context.Background()) }()

	// Shutdown must refuse new work while in-flight queries still hold slots.
	for i := 0; i < 100; i++ {
		if _, err := s.Query(context.Background(), personQuery); errors.Is(err, ErrDraining) {
			break
		}
		time.Sleep(time.Millisecond)
		if i == 99 {
			t.Fatal("drain never started refusing queries")
		}
	}
	if err := s.Insert(context.Background(), nil); err != nil {
		t.Fatalf("zero-length insert should be a no-op, got %v", err)
	}
	if err := s.Insert(context.Background(), []rdf.Triple{{S: pre, P: typ, O: student}}); !errors.Is(err, ErrDraining) {
		t.Fatalf("insert during drain: err = %v, want ErrDraining", err)
	}

	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	inflight.Wait()
	if okCount.Load() != 3 {
		t.Fatalf("only %d of 3 in-flight queries completed correctly through the drain", okCount.Load())
	}
	st := s.Stats()
	if st.Dropped != 0 {
		t.Fatalf("dropped = %d after drain, want 0", st.Dropped)
	}
	// The pre-drain insert must have been applied before the writer exited:
	// the published snapshot contains both the seed and its derived Person.
	sn := s.Snapshot()
	person := d.InternIRI("http://t/Person")
	if !sn.Has(rdf.Triple{S: pre, P: typ, O: student}) || !sn.Has(rdf.Triple{S: pre, P: typ, O: person}) {
		t.Fatal("pre-drain insert (or its closure) missing from final snapshot")
	}
	// Shutdown is idempotent.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

// TestServeQueueTimeout pins the queue-wait path: a waiter whose deadline
// expires before a slot frees must leave with the ctx error and be counted,
// not linger in the queue.
func TestServeQueueTimeout(t *testing.T) {
	s := newTestServer(t, testKB(4), Config{MaxInflight: 1, QueueDepth: 4, Deadline: 50 * time.Millisecond})
	defer s.Shutdown(context.Background())
	block := make(chan struct{})
	occupied := make(chan struct{})
	s.testHook = func(text string) {
		if strings.Contains(text, "BLOCKER") {
			close(occupied)
			<-block
		}
	}
	done := make(chan struct{})
	go func() {
		s.Query(context.Background(), personQuery+" # BLOCKER")
		close(done)
	}()
	<-occupied
	_, err := s.Query(context.Background(), personQuery)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued query err = %v, want DeadlineExceeded", err)
	}
	close(block)
	<-done
	st := s.Stats()
	if st.QueueTimeout != 1 {
		t.Fatalf("queue timeouts = %d, want 1", st.QueueTimeout)
	}
	if len(s.waiters) != 0 {
		t.Fatalf("queue not vacated: %d waiters", len(s.waiters))
	}
}
