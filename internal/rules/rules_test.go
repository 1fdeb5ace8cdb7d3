package rules

import (
	"strings"
	"testing"

	"powl/internal/rdf"
)

func mustParseOne(t *testing.T, src string, dict *rdf.Dict) Rule {
	t.Helper()
	rs, err := Parse(src, dict)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 {
		t.Fatalf("parsed %d rules, want 1", len(rs))
	}
	return rs[0]
}

func TestParseTransitiveRule(t *testing.T) {
	dict := rdf.NewDict()
	src := `
@prefix ex: <http://example.org/> .
[trans: (?a ex:brotherOf ?b) (?b ex:brotherOf ?c) -> (?a ex:brotherOf ?c)]
`
	r := mustParseOne(t, src, dict)
	if r.Name != "trans" {
		t.Errorf("Name = %q", r.Name)
	}
	if len(r.Body) != 2 || len(r.Head) != 1 {
		t.Fatalf("body/head sizes = %d/%d", len(r.Body), len(r.Head))
	}
	p, ok := dict.Lookup(rdf.Term{Kind: rdf.IRI, Value: "http://example.org/brotherOf"})
	if !ok {
		t.Fatal("predicate IRI not interned")
	}
	if r.Body[0].P.IsVar || r.Body[0].P.ID != p {
		t.Errorf("body predicate = %v", r.Body[0].P)
	}
	if !r.Body[0].S.IsVar || r.Body[0].S.Var != "a" {
		t.Errorf("body subject = %v", r.Body[0].S)
	}
}

func TestParseFullIRIAndLiteral(t *testing.T) {
	dict := rdf.NewDict()
	src := `[r: (?x <http://x/p> "lit"^^<http://x/dt>) -> (?x <http://x/q> "plain")]`
	r := mustParseOne(t, src, dict)
	if r.Body[0].O.IsVar {
		t.Fatal("literal parsed as variable")
	}
	term := dict.Term(r.Body[0].O.ID)
	if term.Kind != rdf.Literal || term.Value != `"lit"^^<http://x/dt>` {
		t.Fatalf("literal term = %v", term)
	}
}

func TestParseMultipleRulesAndComments(t *testing.T) {
	dict := rdf.NewDict()
	src := `
@prefix ex: <http://example.org/> .
# first rule
[r1: (?x ex:p ?y) -> (?y ex:q ?x)]
# second
[r2: (?x ex:q ?y) -> (?x ex:p ?y)]
`
	rs, err := Parse(src, dict)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 || rs[0].Name != "r1" || rs[1].Name != "r2" {
		t.Fatalf("rules = %v", rs)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		src     string
		wantSub string
	}{
		{`[r (?x <http://x/p> ?y) -> (?x <http://x/p> ?y)]`, "name"},
		{`[r: (?x <http://x/p> ?y)]`, "->"},
		{`[r: (?x <http://x/p> ?y) -> ]`, "empty head"},
		{`[r: (?x ex:p ?y) -> (?x ex:p ?y)]`, "unknown prefix"},
		{`[r: (?x <http://x/p> ?y) -> (?x <http://x/p> ?z)]`, "unsafe"},
		{`[r: (?x <http://x/p ?y) -> (?x <http://x/p> ?y)]`, "line 1"},
		{`[r: (?x <http://x/p> ?y) -> (?x <http://x/p> ?y)`, "unterminated"},
		{`@prefix ex <http://x/> .`, "expected"},
		{`nonsense`, "expected"},
	}
	for _, c := range cases {
		_, err := Parse(c.src, rdf.NewDict())
		if err == nil {
			t.Errorf("source %q parsed without error", c.src)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("source %q: error %q does not mention %q", c.src, err, c.wantSub)
		}
	}
}

func TestMustParsePanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse did not panic")
		}
	}()
	MustParse("garbage", rdf.NewDict())
}

func TestIsSafe(t *testing.T) {
	dict := rdf.NewDict()
	p := Const(dict.InternIRI("http://x/p"))
	safe := Rule{Body: []Atom{{S: Var("x"), P: p, O: Var("y")}}, Head: []Atom{{S: Var("y"), P: p, O: Var("x")}}}
	if !safe.IsSafe() {
		t.Error("safe rule reported unsafe")
	}
	unsafe := Rule{Body: []Atom{{S: Var("x"), P: p, O: Var("y")}}, Head: []Atom{{S: Var("z"), P: p, O: Var("x")}}}
	if unsafe.IsSafe() {
		t.Error("unsafe rule reported safe")
	}
}

func TestIsSingleJoin(t *testing.T) {
	dict := rdf.NewDict()
	p := Const(dict.InternIRI("http://x/p"))
	x, y, z, w := Var("x"), Var("y"), Var("z"), Var("w")

	cases := []struct {
		name string
		r    Rule
		want bool
	}{
		{"no body", Rule{Head: []Atom{{S: x, P: p, O: y}}, Body: nil}, true},
		{"one atom", Rule{Body: []Atom{{S: x, P: p, O: y}}}, true},
		{"shared subject", Rule{Body: []Atom{{S: x, P: p, O: y}, {S: x, P: p, O: z}}}, true},
		{"chained S-O", Rule{Body: []Atom{{S: x, P: p, O: y}, {S: y, P: p, O: z}}}, true},
		{"disjoint", Rule{Body: []Atom{{S: x, P: p, O: y}, {S: z, P: p, O: w}}}, false},
		// rdfs7-style: the only shared variable is atom 2's predicate, and
		// tuples are not placed on their predicate's owner.
		{"predicate join", Rule{Body: []Atom{{S: x, P: p, O: y}, {S: z, P: y, O: w}}}, false},
		{"three atoms, no common variable", Rule{Body: []Atom{{S: x, P: p, O: y}, {S: y, P: p, O: z}, {S: z, P: p, O: w}}}, false},
		// The intersectionOf composition shape: n atoms on one subject.
		{"n-ary shared subject", Rule{Body: []Atom{{S: x, P: p, O: y}, {S: x, P: p, O: z}, {S: x, P: p, O: w}}}, true},
		{"n-ary shared in both positions", Rule{Body: []Atom{{S: x, P: p, O: y}, {S: x, P: p, O: z}, {S: w, P: p, O: x}}}, true},
	}
	for _, c := range cases {
		if got := c.r.IsSingleJoin(); got != c.want {
			t.Errorf("%s: IsSingleJoin = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestDependencyGraph(t *testing.T) {
	dict := rdf.NewDict()
	src := `
@prefix ex: <http://x/> .
[r1: (?x ex:a ?y) -> (?x ex:b ?y)]
[r2: (?x ex:b ?y) -> (?x ex:c ?y)]
[r3: (?x ex:d ?y) -> (?x ex:e ?y)]
`
	rs, err := Parse(src, dict)
	if err != nil {
		t.Fatal(err)
	}
	edges := DependencyGraph(rs)
	has := func(from, to int) bool {
		for _, e := range edges {
			if e.From == from && e.To == to {
				return true
			}
		}
		return false
	}
	if !has(0, 1) {
		t.Error("missing edge r1 -> r2 (b feeds b)")
	}
	if has(1, 0) {
		t.Error("spurious edge r2 -> r1")
	}
	if has(0, 2) || has(2, 0) || has(1, 2) {
		t.Error("r3 must be isolated")
	}
}

func TestDependencyGraphVariablePredicate(t *testing.T) {
	dict := rdf.NewDict()
	src := `
@prefix ex: <http://x/> .
@prefix owl: <http://www.w3.org/2002/07/owl#> .
[same: (?x owl:sameAs ?y) (?x ?p ?z) -> (?y ?p ?z)]
[use: (?x ex:b ?y) -> (?x ex:c ?y)]
`
	rs, err := Parse(src, dict)
	if err != nil {
		t.Fatal(err)
	}
	edges := DependencyGraph(rs)
	// The variable-predicate head of `same` can feed anything, including
	// itself and `use`.
	var sawSelf, sawUse bool
	for _, e := range edges {
		if e.From == 0 && e.To == 0 {
			sawSelf = true
		}
		if e.From == 0 && e.To == 1 {
			sawUse = true
		}
	}
	if !sawSelf || !sawUse {
		t.Errorf("variable-predicate head edges missing: self=%v use=%v", sawSelf, sawUse)
	}
}

func TestRuleStringAndFormat(t *testing.T) {
	dict := rdf.NewDict()
	r := mustParseOne(t, `[r: (?x <http://x/p> ?y) -> (?y <http://x/p> ?x)]`, dict)
	s := r.String()
	if !strings.Contains(s, "r:") || !strings.Contains(s, "->") {
		t.Errorf("String = %q", s)
	}
	f := r.Format(dict)
	if !strings.Contains(f, "<http://x/p>") || !strings.Contains(f, "?x") {
		t.Errorf("Format = %q", f)
	}
}

func TestBodyVarsSortedUnique(t *testing.T) {
	dict := rdf.NewDict()
	r := mustParseOne(t, `[r: (?z <http://x/p> ?a) (?a <http://x/p> ?z) -> (?z <http://x/p> ?z)]`, dict)
	vs := r.BodyVars()
	if len(vs) != 2 || vs[0] != "a" || vs[1] != "z" {
		t.Fatalf("BodyVars = %v", vs)
	}
}
