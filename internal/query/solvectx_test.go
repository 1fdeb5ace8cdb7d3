package query

import (
	"context"
	"errors"
	"testing"
	"time"

	"powl/internal/rdf"
)

// crossJoinFixture builds a graph where a cross-product query explodes:
// two unrelated predicates with n subjects each, so a two-pattern query
// with disjoint variables enumerates n² bindings.
func crossJoinFixture(n int) (*rdf.Dict, *rdf.Graph, string) {
	dict := rdf.NewDict()
	g := rdf.NewGraph()
	p1 := dict.InternIRI("http://x/p1")
	p2 := dict.InternIRI("http://x/p2")
	for i := 0; i < n; i++ {
		s := dict.InternIRI("http://x/a" + string(rune('0'+i%10)) + string(rune('0'+(i/10)%10)) + string(rune('0'+(i/100)%10)) + string(rune('0'+(i/1000)%10)))
		g.Add(rdf.Triple{S: s, P: p1, O: s})
		g.Add(rdf.Triple{S: s, P: p2, O: s})
	}
	q := `SELECT ?x ?y WHERE { ?x <http://x/p1> ?x . ?y <http://x/p2> ?y . }`
	return dict, g, q
}

func TestSolveContextCancelsPathologicalQuery(t *testing.T) {
	dict, g, src := crossJoinFixture(3000)
	q := MustParse(src, dict)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := q.SolveContext(ctx, g.Snapshot())
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	// 9M rows would take far longer; the deadline must cut it short fast.
	if elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v, deadline was 20ms", elapsed)
	}
	if res == nil {
		t.Fatal("partial result should still be returned")
	}
}

func TestSolveContextPreCancelled(t *testing.T) {
	dict, g := socialGraph()
	q := MustParse(`PREFIX s: <http://s/> SELECT ?x WHERE { ?x a s:Person . }`, dict)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// A tiny query may finish before the first periodic check; it must
	// never return rows AND an error inconsistently — either the full
	// result with nil error, or a ctx error.
	res, err := q.SolveContext(ctx, g.Snapshot())
	if err == nil && len(res.Rows) != 3 {
		t.Fatalf("no error but %d rows, want 3", len(res.Rows))
	}
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled or nil", err)
	}
}

// TestSolveOnSnapshot runs the same query against the graph and against a
// pinned snapshot, then grows the graph and checks the snapshot's answer is
// frozen while the graph's moves.
func TestSolveOnSnapshot(t *testing.T) {
	dict, g := socialGraph()
	q := MustParse(`PREFIX s: <http://s/> SELECT ?x WHERE { ?x a s:Person . }`, dict)
	sn := g.Snapshot()

	res, err := q.SolveContext(context.Background(), sn)
	if err != nil || len(res.Rows) != 3 {
		t.Fatalf("snapshot solve: %d rows, err %v; want 3, nil", len(res.Rows), err)
	}

	typ := dict.InternIRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")
	person := dict.InternIRI("http://s/Person")
	dave := dict.InternIRI("http://s/dave")
	g.Add(rdf.Triple{S: dave, P: typ, O: person})

	res, _ = q.SolveContext(context.Background(), sn)
	if len(res.Rows) != 3 {
		t.Fatalf("pinned snapshot now answers %d rows, want 3", len(res.Rows))
	}
	res, _ = q.SolveContext(context.Background(), g.Snapshot())
	if len(res.Rows) != 4 {
		t.Fatalf("fresh snapshot answers %d rows, want 4", len(res.Rows))
	}
	if got := q.Solve(g); len(got.Rows) != 4 {
		t.Fatalf("graph answers %d rows, want 4", len(got.Rows))
	}
}

func TestDistinctBinaryKeyCorrect(t *testing.T) {
	dict, g := socialGraph()
	// knows has 2 rows with distinct subjects; project only ?x typed —
	// exercise dedup across multiple patterns.
	q := MustParse(`
PREFIX s: <http://s/>
SELECT DISTINCT ?t WHERE {
  ?x a ?t .
}`, dict)
	res := q.Solve(g)
	if len(res.Rows) != 1 {
		t.Fatalf("DISTINCT ?t: got %d rows, want 1", len(res.Rows))
	}
	// And a non-distinct control.
	q2 := MustParse(`PREFIX s: <http://s/> SELECT ?t WHERE { ?x a ?t . }`, dict)
	if res2 := q2.Solve(g); len(res2.Rows) != 3 {
		t.Fatalf("non-distinct control: got %d rows, want 3", len(res2.Rows))
	}
}
