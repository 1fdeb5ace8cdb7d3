package reason

import (
	"math/rand"
	"testing"

	"powl/internal/rdf"
	"powl/internal/rules"
)

// allocFixture builds a graph and rule set exercising the full join path:
// a two-atom transitive-style chain rule, a three-atom rule, and a
// same-subj-shaped rule whose variable-predicate atom every triple
// activates (as OWL-Horst's owl:sameAs rules are; the fixture has no
// pSame triple, as LUBM has none), over data dense enough that joins
// succeed and fail on every delta triple.
func allocFixture() (*rdf.Graph, []rules.Rule, []rdf.Triple) {
	const (
		pLink = rdf.ID(1)
		pType = rdf.ID(2)
		pNear = rdf.ID(3)
		cNode = rdf.ID(4)
		pSame = rdf.ID(5)
	)
	rs := []rules.Rule{
		{
			Name: "chain",
			Body: []rules.Atom{
				{S: rules.Var("x"), P: rules.Const(pLink), O: rules.Var("y")},
				{S: rules.Var("y"), P: rules.Const(pLink), O: rules.Var("z")},
			},
			Head: []rules.Atom{{S: rules.Var("x"), P: rules.Const(pNear), O: rules.Var("z")}},
		},
		{
			Name: "typed-near",
			Body: []rules.Atom{
				{S: rules.Var("x"), P: rules.Const(pType), O: rules.Const(cNode)},
				{S: rules.Var("x"), P: rules.Const(pLink), O: rules.Var("y")},
				{S: rules.Var("y"), P: rules.Const(pType), O: rules.Const(cNode)},
			},
			Head: []rules.Atom{{S: rules.Var("x"), P: rules.Const(pNear), O: rules.Var("y")}},
		},
		{
			Name: "same-subj",
			Body: []rules.Atom{
				{S: rules.Var("x"), P: rules.Const(pSame), O: rules.Var("y")},
				{S: rules.Var("x"), P: rules.Var("p"), O: rules.Var("o")},
			},
			Head: []rules.Atom{{S: rules.Var("y"), P: rules.Var("p"), O: rules.Var("o")}},
		},
	}
	rng := rand.New(rand.NewSource(7))
	g := rdf.NewGraphCap(4096)
	var deltas []rdf.Triple
	for i := 0; i < 400; i++ {
		s := rdf.ID(10 + rng.Intn(60))
		o := rdf.ID(10 + rng.Intn(60))
		t := rdf.Triple{S: s, P: pLink, O: o}
		if g.Add(t) {
			deltas = append(deltas, t)
		}
		g.Add(rdf.Triple{S: s, P: pType, O: cNode})
		g.Add(rdf.Triple{S: o, P: pType, O: cNode})
	}
	return g, rs, deltas
}

// joinPathAllocs measures the steady-state join path over g, which must be
// at fixpoint under rs: every trigger of every stratum fired for every
// delta triple — binding, selectivity ranking, index scans, head
// instantiation — through the one emit the fire loop has (graph Has, then
// the shard's Add), with one scratch and one shard, exactly what fireShard
// owns. rec turns on the scratch's premise capture. It returns the
// allocations per pass over deltas.
func joinPathAllocs(t *testing.T, g *rdf.Graph, rs []rules.Rule, deltas []rdf.Triple, rec bool) float64 {
	t.Helper()
	p := mustCompile(rs)
	sc := newScratch(p)
	sc.rec = rec
	sh := rdf.NewDeltaStage(1).Shard(0)
	emit := func(tr rdf.Triple) {
		if !g.Has(tr) {
			sh.Add(tr)
		}
	}
	fired := 0
	run := func() {
		for _, d := range deltas {
			for s := range p.plans {
				for _, tr := range p.plans[s].idx.lookup(d) {
					m, _ := fireOn(g, sc, tr, d, emit)
					fired += int(m)
				}
			}
		}
	}
	run() // warm up scratch and any lazy state before measuring
	if fired == 0 {
		t.Fatal("fixture produced no body matches; the test would measure nothing")
	}
	if sh.Len() != 0 {
		t.Fatalf("graph not at fixpoint: %d staged emits", sh.Len())
	}
	return testing.AllocsPerRun(20, run)
}

// TestJoinPathZeroAllocs pins the steady-state join path at zero heap
// allocations per delta triple: once the graph is at fixpoint and the
// scratch buffers are warm, firing every trigger for a delta triple must
// not allocate, whether the closure was reached on one shard or several. A
// regression here is the per-firing garbage the compact store was built to
// eliminate.
func TestJoinPathZeroAllocs(t *testing.T) {
	for _, threads := range []int{1, 4} {
		g, rs, deltas := allocFixture()
		Forward{Threads: threads}.Materialize(g, rs)
		if avg := joinPathAllocs(t, g, rs, deltas, false); avg != 0 {
			t.Errorf("threads=%d: join path allocates %.1f times per %d delta firings, want 0", threads, avg, len(deltas))
		}
	}
}

// TestJoinPathZeroAllocsWithDeletions pins the same property with a
// non-empty tombstone set: every index scan now filters through the pinned
// bitset, and that filter must not cost an allocation either. The graph is
// brought back to fixpoint through Retract (which rematerializes), so the
// steady-state measurement is identical in shape to the tombstone-free
// test.
func TestJoinPathZeroAllocsWithDeletions(t *testing.T) {
	g, rs, deltas := allocFixture()
	Forward{}.Materialize(g, rs)
	ret := NewRetractor(rs)
	if st := ret.Retract(g, deltas[:40]); st.Requested == 0 {
		t.Fatal("fixture retraction deleted nothing")
	}
	if g.Dead() == 0 {
		t.Fatal("retraction left no tombstones; test would not exercise the filter")
	}
	if avg := joinPathAllocs(t, g, rs, deltas[40:], false); avg != 0 {
		t.Errorf("join path with tombstones allocates %.1f times per %d delta firings, want 0",
			avg, len(deltas)-40)
	}
}

// TestBindTripleNoAlloc pins the binding primitive itself: bitmask
// bind/unbind over a scratch environment must be allocation-free.
func TestBindTripleNoAlloc(t *testing.T) {
	g, rs, deltas := allocFixture()
	_ = g
	p := mustCompile(rs)
	sc := newScratch(p)
	r := &p.rules[0]
	if avg := testing.AllocsPerRun(100, func() {
		e := sc.env[:r.nslot]
		for i := range e {
			e[i] = 0
		}
		for _, d := range deltas {
			if bound, ok := e.bindTriple(r.body[0], d); ok {
				e.unbind(bound)
			}
		}
	}); avg != 0 {
		t.Errorf("bindTriple/unbind allocates %.1f times per run, want 0", avg)
	}
}
