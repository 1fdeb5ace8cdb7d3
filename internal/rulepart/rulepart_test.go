package rulepart

import (
	"testing"

	"powl/internal/gpart"
	"powl/internal/rdf"
	"powl/internal/rules"
)

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
	rt := NewRouter(rs, res)

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
	rt := NewRouter(rs, res)
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
	rt := NewRouter(rs, res)
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
