package rulepart

import (
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"powl/internal/datagen"
	"powl/internal/gpart"
	"powl/internal/owlhorst"
	"powl/internal/rdf"
	"powl/internal/reason"
	"powl/internal/rules"
)

func compile(t testing.TB, rs []rules.Rule) *reason.Program {
	t.Helper()
	prog, err := reason.Compile(rs)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func parse(t *testing.T, src string, dict *rdf.Dict) []rules.Rule {
	t.Helper()
	rs, err := rules.Parse("@prefix t: <http://t/> .\n"+src, dict)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// chainRules builds 2n rules in n independent pairs: producer pi feeds
// consumer ci, with no cross-pair dependencies — the ideal rule-partitioning
// input.
const chainRules = `
[p1: (?x t:a1 ?y) -> (?x t:b1 ?y)]
[c1: (?x t:b1 ?y) -> (?x t:c1 ?y)]
[p2: (?x t:a2 ?y) -> (?x t:b2 ?y)]
[c2: (?x t:b2 ?y) -> (?x t:c2 ?y)]
[p3: (?x t:a3 ?y) -> (?x t:b3 ?y)]
[c3: (?x t:b3 ?y) -> (?x t:c3 ?y)]
[p4: (?x t:a4 ?y) -> (?x t:b4 ?y)]
[c4: (?x t:b4 ?y) -> (?x t:c4 ?y)]
`

func TestPartitionCoversAllRules(t *testing.T) {
	dict := rdf.NewDict()
	rs := parse(t, chainRules, dict)
	for _, k := range []int{1, 2, 4} {
		res, err := Partition(rs, k, gpart.Options{})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		seen := map[int]bool{}
		for _, grp := range res.Groups {
			for _, r := range grp {
				if seen[r] {
					t.Fatalf("k=%d: rule %d in two groups", k, r)
				}
				seen[r] = true
			}
		}
		if len(seen) != len(rs) {
			t.Fatalf("k=%d: %d of %d rules assigned", k, len(seen), len(rs))
		}
		for r, p := range res.RulePart {
			if p < 0 || p >= k {
				t.Fatalf("rule %d assigned to invalid partition %d", r, p)
			}
		}
	}
}

func TestPartitionKeepsDependentPairsTogether(t *testing.T) {
	dict := rdf.NewDict()
	rs := parse(t, chainRules, dict)
	res, err := Partition(rs, 4, gpart.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Each producer/consumer pair (2i, 2i+1) should share a partition: the
	// pairs are mutually independent, so the zero cut is achievable.
	if res.CutWeight != 0 {
		t.Errorf("cut weight %d on independent pairs; want 0 (parts: %v)", res.CutWeight, res.RulePart)
	}
	for i := 0; i < len(rs); i += 2 {
		if res.RulePart[i] != res.RulePart[i+1] {
			t.Errorf("pair %d split: producer in %d, consumer in %d", i/2, res.RulePart[i], res.RulePart[i+1])
		}
	}
}

func TestPartitionValidation(t *testing.T) {
	dict := rdf.NewDict()
	rs := parse(t, chainRules, dict)
	if _, err := Partition(rs, 0, gpart.Options{}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := Partition(rs, len(rs)+1, gpart.Options{}); err == nil {
		t.Error("k>len(rules) accepted")
	}
}

func TestRouterDestinations(t *testing.T) {
	dict := rdf.NewDict()
	rs := parse(t, `
[r0: (?x t:a ?y) -> (?x t:b ?y)]
[r1: (?x t:b ?y) -> (?x t:c ?y)]
[r2: (?x t:d ?y) -> (?x t:e ?y)]
`, dict)
	res := &Result{K: 3, RulePart: []int{0, 1, 2}, Groups: [][]int{{0}, {1}, {2}}}
	rt := NewRouter(compile(t, rs), res)

	a := dict.InternIRI("http://t/a")
	b := dict.InternIRI("http://t/b")
	x := dict.InternIRI("http://t/x")
	y := dict.InternIRI("http://t/y")

	// A b-triple generated on partition 0 must go to partition 1 (r1
	// consumes b) and nowhere else.
	dsts := rt.Destinations(rdf.Triple{S: x, P: b, O: y}, 0)
	if len(dsts) != 1 || dsts[0] != 1 {
		t.Fatalf("b-triple destinations = %v, want [1]", dsts)
	}
	// From partition 1 itself, no destination (no other partition wants b).
	if dsts := rt.Destinations(rdf.Triple{S: x, P: b, O: y}, 1); len(dsts) != 0 {
		t.Fatalf("self-routing: %v", dsts)
	}
	// An a-triple from partition 2 goes to partition 0.
	dsts = rt.Destinations(rdf.Triple{S: x, P: a, O: y}, 2)
	if len(dsts) != 1 || dsts[0] != 0 {
		t.Fatalf("a-triple destinations = %v, want [0]", dsts)
	}
	// A triple with an unconsumed predicate goes nowhere.
	z := dict.InternIRI("http://t/zzz")
	if dsts := rt.Destinations(rdf.Triple{S: x, P: z, O: y}, 0); len(dsts) != 0 {
		t.Fatalf("unconsumed predicate routed: %v", dsts)
	}
}

func TestRouterVariablePredicate(t *testing.T) {
	dict := rdf.NewDict()
	rs := parse(t, `
[same: (?x t:same ?y) (?x ?p ?z) -> (?y ?p ?z)]
[r1: (?x t:b ?y) -> (?x t:c ?y)]
`, dict)
	res := &Result{K: 2, RulePart: []int{0, 1}, Groups: [][]int{{0}, {1}}}
	rt := NewRouter(compile(t, rs), res)
	x := dict.InternIRI("http://t/x")
	y := dict.InternIRI("http://t/y")
	anyP := dict.InternIRI("http://t/whatever")
	// Partition 0 has a variable-predicate body atom: every tuple from
	// partition 1 is a potential match.
	dsts := rt.Destinations(rdf.Triple{S: x, P: anyP, O: y}, 1)
	if len(dsts) != 1 || dsts[0] != 0 {
		t.Fatalf("variable-predicate routing = %v, want [0]", dsts)
	}
}

func TestRouterGroundAtomFiltering(t *testing.T) {
	dict := rdf.NewDict()
	rs := parse(t, `
[r0: (?x t:p <http://t/special>) -> (?x t:q <http://t/special>)]
[r1: (?x t:p ?y) -> (?x t:r ?y)]
`, dict)
	res := &Result{K: 2, RulePart: []int{0, 1}, Groups: [][]int{{0}, {1}}}
	rt := NewRouter(compile(t, rs), res)
	x := dict.InternIRI("http://t/x")
	p := dict.InternIRI("http://t/p")
	special := dict.InternIRI("http://t/special")
	other := dict.InternIRI("http://t/other")

	// (x p other) matches r1's body but NOT r0's (object constant differs).
	dsts := rt.Destinations(rdf.Triple{S: x, P: p, O: other}, 5)
	if len(dsts) != 1 || dsts[0] != 1 {
		t.Fatalf("destinations = %v, want [1]", dsts)
	}
	dsts = rt.Destinations(rdf.Triple{S: x, P: p, O: special}, 5)
	if len(dsts) != 2 {
		t.Fatalf("special triple should reach both partitions, got %v", dsts)
	}
}

// TestRouterMatchesOracle: on random rule sets whose body atoms have
// constant subjects, constant objects, variable predicates and repeated
// variables, Destinations is the brute-force answer: the groups other than
// from with a body atom whose constants agree with the triple, ascending.
func TestRouterMatchesOracle(t *testing.T) {
	const nIDs = 5 // constants and triple terms are IDs 1..nIDs
	rng := rand.New(rand.NewSource(1))
	term := func(vars []string) rules.TermSpec {
		if rng.Intn(2) == 0 {
			return rules.Var(vars[rng.Intn(len(vars))])
		}
		return rules.Const(rdf.ID(1 + rng.Intn(nIDs)))
	}
	agrees := func(a rules.Atom, t rdf.Triple) bool {
		for _, c := range [3]struct {
			ts rules.TermSpec
			id rdf.ID
		}{{a.S, t.S}, {a.P, t.P}, {a.O, t.O}} {
			if !c.ts.IsVar && c.ts.ID != c.id {
				return false
			}
		}
		return true
	}
	for iter := 0; iter < 300; iter++ {
		rs := make([]rules.Rule, 1+rng.Intn(8))
		for i := range rs {
			body := make([]rules.Atom, 1+rng.Intn(3))
			for j := range body {
				body[j] = rules.Atom{S: term([]string{"x", "y"}), P: term([]string{"p"}), O: term([]string{"x", "y"})}
			}
			// The head uses only the body's variables, so the rule is safe.
			var vars []string
			for _, a := range body {
				for _, ts := range []rules.TermSpec{a.S, a.P, a.O} {
					if ts.IsVar {
						vars = append(vars, ts.Var)
					}
				}
			}
			head := rules.Atom{S: rules.Const(1), P: rules.Const(2), O: rules.Const(3)}
			if len(vars) > 0 {
				head.S = term(vars)
			}
			rs[i] = rules.Rule{Name: "r" + strconv.Itoa(i), Body: body, Head: []rules.Atom{head}}
		}
		k := 1 + rng.Intn(len(rs))
		res := &Result{K: k, RulePart: make([]int, len(rs))}
		for i := range res.RulePart {
			res.RulePart[i] = rng.Intn(k)
		}
		rt := NewRouter(compile(t, rs), res)
		for range 40 {
			tr := rdf.Triple{S: rdf.ID(1 + rng.Intn(nIDs)), P: rdf.ID(1 + rng.Intn(nIDs)), O: rdf.ID(1 + rng.Intn(nIDs))}
			from := rng.Intn(k+1) - 1
			var want []int
			for g := 0; g < k; g++ {
				if g == from {
					continue
				}
				for r, rule := range rs {
					if res.RulePart[r] == g && slices.ContainsFunc(rule.Body, func(a rules.Atom) bool { return agrees(a, tr) }) {
						want = append(want, g)
						break
					}
				}
			}
			if got := rt.Destinations(tr, from); !slices.Equal(got, want) {
				t.Fatalf("rules %v parts %v: Destinations(%v, %d) = %v, want %v", rs, res.RulePart, tr, from, got, want)
			}
		}
	}
}

var sinkDests []int

// BenchmarkRouterDestinations routes 1,024 triples of a LUBM closure between
// three groups of LUBM's instance rules, each from one of the groups: the
// path every triple a rule worker derives takes. One op routes all of them.
func BenchmarkRouterDestinations(b *testing.B) {
	ds := datagen.LUBM(datagen.LUBMConfig{Universities: 1, Seed: 7})
	comp := owlhorst.Compile(ds.Dict, ds.Graph)
	res, err := Partition(comp.InstanceRules, 3, gpart.Options{Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	rt := NewRouter(compile(b, comp.InstanceRules), res)
	g := comp.Start(ds.Graph)
	reason.Forward{}.Materialize(g, comp.InstanceRules)
	all := g.TriplesSince(0)
	sample := make([]rdf.Triple, 1024)
	for i := range sample {
		sample[i] = all[i*len(all)/len(sample)]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for i, t := range sample {
			sinkDests = rt.Destinations(t, i%3)
		}
	}
}
