package reason

import (
	"math/rand"
	"testing"
	"testing/quick"

	"powl/internal/rdf"
	"powl/internal/rules"
)

// env/test fixtures -----------------------------------------------------

type fx struct {
	dict *rdf.Dict
	g    *rdf.Graph
}

func newFx() *fx { return &fx{dict: rdf.NewDict(), g: rdf.NewGraph()} }

func (f *fx) id(s string) rdf.ID { return f.dict.InternIRI("http://t/" + s) }
func (f *fx) add(s, p, o rdf.ID) { f.g.Add(rdf.Triple{S: s, P: p, O: o}) }
func (f *fx) parse(src string) []rules.Rule {
	return rules.MustParse("@prefix t: <http://t/> .\n"+src, f.dict)
}

// plainEngine is Engine plus the context-free convenience methods every
// built-in engine keeps beside it.
type plainEngine interface {
	Engine
	Materialize(g *rdf.Graph, rs []rules.Rule) int
	MaterializeFrom(g *rdf.Graph, rs []rules.Rule, seeds []rdf.Triple) int
}

var engines = []plainEngine{Forward{}, Hybrid{}, Hybrid{SharedTable: true}}

// checkAllEngines materializes clones of g under rs with every engine and
// requires identical results; returns the closure.
func checkAllEngines(t *testing.T, f *fx, rs []rules.Rule) *rdf.Graph {
	t.Helper()
	var ref *rdf.Graph
	for _, e := range engines {
		g := f.g.Clone()
		e.Materialize(g, rs)
		if ref == nil {
			ref = g
			continue
		}
		if !g.Equal(ref) {
			t.Fatalf("engine %s disagrees: %d vs %d triples; missing=%v extra=%v",
				e.Name(), g.Len(), ref.Len(), ref.Diff(g), g.Diff(ref))
		}
	}
	return ref
}

// ------------------------------------------------------------------------

func TestTransitiveClosureChain(t *testing.T) {
	f := newFx()
	p := f.id("p")
	const n = 12
	ids := make([]rdf.ID, n)
	for i := range ids {
		ids[i] = f.id("n" + string(rune('a'+i)))
	}
	for i := 0; i+1 < n; i++ {
		f.add(ids[i], p, ids[i+1])
	}
	rs := f.parse(`[tr: (?x t:p ?y) (?y t:p ?z) -> (?x t:p ?z)]`)
	closed := checkAllEngines(t, f, rs)
	// Closure of a chain of n nodes has n(n-1)/2 edges.
	want := n * (n - 1) / 2
	if closed.Len() != want {
		t.Fatalf("closure has %d triples, want %d", closed.Len(), want)
	}
}

func TestTransitiveClosureCycle(t *testing.T) {
	f := newFx()
	p := f.id("p")
	a, b, c := f.id("a"), f.id("b"), f.id("c")
	f.add(a, p, b)
	f.add(b, p, c)
	f.add(c, p, a)
	rs := f.parse(`[tr: (?x t:p ?y) (?y t:p ?z) -> (?x t:p ?z)]`)
	closed := checkAllEngines(t, f, rs)
	// A 3-cycle closes to the complete relation on {a,b,c}: 9 edges.
	if closed.Len() != 9 {
		t.Fatalf("cycle closure has %d triples, want 9", closed.Len())
	}
}

func TestSymmetricAndSubProperty(t *testing.T) {
	f := newFx()
	a, b := f.id("a"), f.id("b")
	f.add(a, f.id("knows"), b)
	rs := f.parse(`
[sym: (?x t:knows ?y) -> (?y t:knows ?x)]
[sub: (?x t:knows ?y) -> (?x t:acquainted ?y)]
`)
	closed := checkAllEngines(t, f, rs)
	if !closed.Has(rdf.Triple{S: b, P: f.id("knows"), O: a}) {
		t.Error("symmetric derivation missing")
	}
	if !closed.Has(rdf.Triple{S: b, P: f.id("acquainted"), O: a}) {
		t.Error("chained derivation through symmetric missing")
	}
}

func TestVariablePredicateRule(t *testing.T) {
	f := newFx()
	same := f.id("same")
	a, b, c := f.id("a"), f.id("b"), f.id("c")
	p := f.id("p")
	f.add(a, same, b)
	f.add(a, p, c)
	rs := f.parse(`[subst: (?x t:same ?y) (?x ?q ?z) -> (?y ?q ?z)]`)
	closed := checkAllEngines(t, f, rs)
	if !closed.Has(rdf.Triple{S: b, P: p, O: c}) {
		t.Error("variable-predicate substitution missing")
	}
	// The rule also applies to the same triple itself: (b same b).
	if !closed.Has(rdf.Triple{S: b, P: same, O: b}) {
		t.Error("self-application through substitution missing")
	}
}

// TestHybridLateSCCMember: a pass over a tabled component opens a subgoal
// that consumes the component's partial answers. The solver must iterate
// and complete that subgoal with the component, not pop it still active:
// the shared table then served its partial answers to later queries and
// lost three of n3's b-triples.
func TestHybridLateSCCMember(t *testing.T) {
	f := newFx()
	n := func(s string) rdf.ID { return f.id(s) }
	for _, s := range []string{"a", "b", "c", "d", "n1", "n0", "n2", "n3"} {
		n(s) // the resource order the queries run in is ID order
	}
	f.add(n("n1"), n("d"), n("n0"))
	f.add(n("n3"), n("d"), n("n2"))
	f.add(n("n3"), n("a"), n("n3"))
	f.add(n("n2"), n("a"), n("n1"))
	f.add(n("n2"), n("b"), n("n3"))
	rs := f.parse(`
[tr: (?x t:b ?y) (?y t:b ?z) -> (?x t:b ?z)]
[ren: (?x t:d ?y) -> (?x t:a ?y)]
[csubj: (t:n1 t:a ?y) -> (?y t:d t:n1)]
[vpred: (?x ?p ?y) (?y t:d ?z) -> (?x t:b ?z)]
`)
	if closed := checkAllEngines(t, f, rs); !closed.Has(rdf.Triple{S: n("n3"), P: n("b"), O: n("n3")}) {
		t.Error("(n3 b n3) missing")
	}
}

func TestRepeatedVariableAtom(t *testing.T) {
	f := newFx()
	p, q := f.id("p"), f.id("q")
	a, b := f.id("a"), f.id("b")
	f.add(a, p, a) // reflexive: matches (?x p ?x)
	f.add(a, p, b) // not reflexive
	rs := f.parse(`[refl: (?x t:p ?x) -> (?x t:q ?x)]`)
	closed := checkAllEngines(t, f, rs)
	if !closed.Has(rdf.Triple{S: a, P: q, O: a}) {
		t.Error("reflexive match missing")
	}
	if closed.Has(rdf.Triple{S: a, P: q, O: b}) || closed.Has(rdf.Triple{S: b, P: q, O: b}) {
		t.Error("repeated-variable atom matched non-reflexive triple")
	}
}

func TestThreeAtomBody(t *testing.T) {
	// The generic forward engine must handle >2-atom bodies (meta rules
	// have up to 4). The hybrid engine sees only compiled (≤2-atom+n-ary
	// intersection) rules in production but must still be correct.
	f := newFx()
	p, q, r, out := f.id("p"), f.id("q"), f.id("r"), f.id("out")
	a, b, c, d := f.id("a"), f.id("b"), f.id("c"), f.id("d")
	f.add(a, p, b)
	f.add(b, q, c)
	f.add(c, r, d)
	rs := f.parse(`[j3: (?w t:p ?x) (?x t:q ?y) (?y t:r ?z) -> (?w t:out ?z)]`)
	closed := checkAllEngines(t, f, rs)
	if !closed.Has(rdf.Triple{S: a, P: out, O: d}) {
		t.Error("3-way join missing")
	}
}

func TestNoDerivationWithoutMatch(t *testing.T) {
	f := newFx()
	f.add(f.id("a"), f.id("p"), f.id("b"))
	rs := f.parse(`[r: (?x t:q ?y) -> (?y t:q ?x)]`)
	closed := checkAllEngines(t, f, rs)
	if closed.Len() != 1 {
		t.Fatalf("engine invented triples: %d", closed.Len())
	}
}

func TestEmptyGraphAndEmptyRules(t *testing.T) {
	f := newFx()
	rs := f.parse(`[r: (?x t:p ?y) -> (?y t:p ?x)]`)
	for _, e := range engines {
		g := rdf.NewGraph()
		if n := e.Materialize(g, rs); n != 0 || g.Len() != 0 {
			t.Errorf("%s on empty graph added %d", e.Name(), n)
		}
	}
	f.add(f.id("a"), f.id("p"), f.id("b"))
	for _, e := range engines {
		g := f.g.Clone()
		if n := e.Materialize(g, nil); n != 0 {
			t.Errorf("%s with no rules added %d", e.Name(), n)
		}
	}
}

func TestMaterializeReturnsAddedCount(t *testing.T) {
	f := newFx()
	a, b, c := f.id("a"), f.id("b"), f.id("c")
	p := f.id("p")
	f.add(a, p, b)
	f.add(b, p, c)
	rs := f.parse(`[tr: (?x t:p ?y) (?y t:p ?z) -> (?x t:p ?z)]`)
	for _, e := range engines {
		g := f.g.Clone()
		if n := e.Materialize(g, rs); n != 1 {
			t.Errorf("%s reported %d added, want 1", e.Name(), n)
		}
	}
}

func TestClosureLeavesInputIntact(t *testing.T) {
	f := newFx()
	a, b, c := f.id("a"), f.id("b"), f.id("c")
	p := f.id("p")
	f.add(a, p, b)
	f.add(b, p, c)
	rs := f.parse(`[tr: (?x t:p ?y) (?y t:p ?z) -> (?x t:p ?z)]`)
	before := f.g.Len()
	closed := f.g.Clone()
	Forward{}.Materialize(closed, rs)
	if f.g.Len() != before || f.g.Has(rdf.Triple{S: a, P: p, O: c}) {
		t.Fatal("closing a clone mutated its source")
	}
	if closed.Len() != before+1 {
		t.Fatalf("closure size %d", closed.Len())
	}
}

// randomRuleSet builds a small random single-join rule universe over nPreds
// predicates: transitivity, symmetry and renaming rules, then a rule with a
// constant object, one with a constant subject (node n1 in both), one
// joining a variable-predicate atom and, in half the sets, one whose
// variable predicate the other body atom binds — a join through it reads
// bySP, byPO or byP for any predicate, so the whole set's scope is full.
func randomRuleSet(f *fx, rng *rand.Rand, nPreds int) []rules.Rule {
	var rs []rules.Rule
	preds := make([]rdf.ID, nPreds)
	for i := range preds {
		preds[i] = f.id("pred" + string(rune('A'+i)))
	}
	x, y, z := rules.Var("x"), rules.Var("y"), rules.Var("z")
	for i, p := range preds {
		pc := rules.Const(p)
		switch rng.Intn(3) {
		case 0:
			rs = append(rs, rules.Rule{
				Name: "tr" + string(rune('A'+i)),
				Body: []rules.Atom{{S: x, P: pc, O: y}, {S: y, P: pc, O: z}},
				Head: []rules.Atom{{S: x, P: pc, O: z}},
			})
		case 1:
			rs = append(rs, rules.Rule{
				Name: "sym" + string(rune('A'+i)),
				Body: []rules.Atom{{S: x, P: pc, O: y}},
				Head: []rules.Atom{{S: y, P: pc, O: x}},
			})
		default:
			q := rules.Const(preds[rng.Intn(nPreds)])
			rs = append(rs, rules.Rule{
				Name: "ren" + string(rune('A'+i)),
				Body: []rules.Atom{{S: x, P: pc, O: y}},
				Head: []rules.Atom{{S: x, P: q, O: y}},
			})
		}
	}
	pick := func() rules.TermSpec { return rules.Const(preds[rng.Intn(nPreds)]) }
	c, v := rules.Const(f.id("n1")), rules.Var("p")
	rs = append(rs,
		rules.Rule{Name: "cobj", Body: []rules.Atom{{S: x, P: pick(), O: c}}, Head: []rules.Atom{{S: x, P: pick(), O: c}}},
		rules.Rule{Name: "csubj", Body: []rules.Atom{{S: c, P: pick(), O: y}}, Head: []rules.Atom{{S: y, P: pick(), O: c}}},
		rules.Rule{Name: "vpred", Body: []rules.Atom{{S: x, P: v, O: y}, {S: y, P: pick(), O: z}}, Head: []rules.Atom{{S: x, P: pick(), O: z}}},
	)
	if rng.Intn(2) == 0 {
		rs = append(rs, rules.Rule{Name: "vshared", Body: []rules.Atom{{S: x, P: v, O: y}, {S: y, P: v, O: z}},
			Head: []rules.Atom{{S: x, P: pick(), O: z}}})
	}
	return rs
}

// TestEnginesAgreeProperty: on random graphs and random single-join rule
// sets, forward and hybrid produce identical closures.
func TestEnginesAgreeProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		f := newFx()
		nPreds := 2 + rng.Intn(3)
		rs := randomRuleSet(f, rng, nPreds)
		nNodes := 4 + rng.Intn(8)
		nodes := make([]rdf.ID, nNodes)
		for i := range nodes {
			nodes[i] = f.id("n" + string(rune('0'+i)))
		}
		for i := 0; i < 3*nNodes; i++ {
			f.add(nodes[rng.Intn(nNodes)],
				f.id("pred"+string(rune('A'+rng.Intn(nPreds)))),
				nodes[rng.Intn(nNodes)])
		}
		fw := f.g.Clone()
		Forward{}.Materialize(fw, rs)
		hy := f.g.Clone()
		Hybrid{}.Materialize(hy, rs)
		hs := f.g.Clone()
		Hybrid{SharedTable: true}.Materialize(hs, rs)
		return fw.Equal(hy) && fw.Equal(hs)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestIncrementalMatchesFull: closing an already-materialized graph over
// seed tuples gives the same result as re-materializing from scratch, for
// both incremental implementations.
func TestIncrementalMatchesFull(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		f := newFx()
		rs := randomRuleSet(f, rng, 3)
		nNodes := 5 + rng.Intn(6)
		nodes := make([]rdf.ID, nNodes)
		for i := range nodes {
			nodes[i] = f.id("n" + string(rune('0'+i)))
		}
		mk := func() rdf.Triple {
			return rdf.Triple{
				S: nodes[rng.Intn(nNodes)],
				P: f.id("pred" + string(rune('A'+rng.Intn(3)))),
				O: nodes[rng.Intn(nNodes)],
			}
		}
		for i := 0; i < 2*nNodes; i++ {
			f.g.Add(mk())
		}
		var seeds []rdf.Triple
		for i := 0; i < 3; i++ {
			seeds = append(seeds, mk())
		}

		// Reference: full closure over base+seeds.
		ref := f.g.Clone()
		for _, s := range seeds {
			ref.Add(s)
		}
		Forward{}.Materialize(ref, rs)

		for _, inc := range []plainEngine{Forward{}, Hybrid{}} {
			g := f.g.Clone()
			Forward{}.Materialize(g, rs) // fixpoint before the seeds arrive
			var fresh []rdf.Triple
			for _, s := range seeds {
				if g.Add(s) {
					fresh = append(fresh, s)
				}
			}
			inc.MaterializeFrom(g, rs, fresh)
			if !g.Equal(ref) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMaterializeFromEmptySeeds(t *testing.T) {
	f := newFx()
	f.add(f.id("a"), f.id("p"), f.id("b"))
	rs := f.parse(`[tr: (?x t:p ?y) (?y t:p ?z) -> (?x t:p ?z)]`)
	for _, inc := range []plainEngine{Forward{}, Hybrid{}} {
		g := f.g.Clone()
		if n := inc.MaterializeFrom(g, rs, nil); n != 0 {
			t.Errorf("empty seeds derived %d", n)
		}
	}
}

func TestEngineNames(t *testing.T) {
	if (Forward{}).Name() != "forward" {
		t.Error("forward name")
	}
	if (Hybrid{}).Name() != "hybrid" {
		t.Error("hybrid name")
	}
	if (Hybrid{SharedTable: true}).Name() != "hybrid-shared" {
		t.Error("hybrid-shared name")
	}
}

// TestMultiHeadRule: rules with several head atoms instantiate all of them.
func TestMultiHeadRule(t *testing.T) {
	f := newFx()
	a, b := f.id("a"), f.id("b")
	f.add(a, f.id("p"), b)
	rs := f.parse(`[mh: (?x t:p ?y) -> (?x t:q ?y) (?y t:r ?x)]`)
	closed := checkAllEngines(t, f, rs)
	if !closed.Has(rdf.Triple{S: a, P: f.id("q"), O: b}) ||
		!closed.Has(rdf.Triple{S: b, P: f.id("r"), O: a}) {
		t.Error("multi-head instantiation incomplete")
	}
}
