package owlhorst

import (
	"strings"
	"testing"

	"powl/internal/rdf"
	"powl/internal/reason"
	"powl/internal/vocab"
)

// fixture builds a small ontology + data graph exercising each OWL-Horst
// construct the compiler handles.
type fixture struct {
	dict *rdf.Dict
	g    *rdf.Graph
}

func newFixture() *fixture {
	return &fixture{dict: rdf.NewDict(), g: rdf.NewGraph()}
}

func (f *fixture) iri(s string) rdf.ID { return f.dict.InternIRI("http://t/" + s) }
func (f *fixture) v(s string) rdf.ID   { return f.dict.InternIRI(s) }
func (f *fixture) add(s, p, o rdf.ID)  { f.g.Add(rdf.Triple{S: s, P: p, O: o}) }

func (f *fixture) has(t *testing.T, closed *rdf.Graph, s, p, o rdf.ID, label string) {
	t.Helper()
	if !closed.Has(rdf.Triple{S: s, P: p, O: o}) {
		t.Errorf("%s: missing %s", label, f.dict.FormatTriple(rdf.Triple{S: s, P: p, O: o}))
	}
}

func TestMetaRulesParse(t *testing.T) {
	dict := rdf.NewDict()
	rs := MetaRules(dict)
	if len(rs) < 20 {
		t.Fatalf("only %d meta rules parsed", len(rs))
	}
	names := map[string]bool{}
	for _, r := range rs {
		if names[r.Name] {
			t.Errorf("duplicate rule name %q", r.Name)
		}
		names[r.Name] = true
		if !r.IsSafe() {
			t.Errorf("meta rule %s is unsafe", r.Name)
		}
	}
	for _, want := range []string{"rdfs9", "rdfp4", "rdfp15", "rdfp16", "rdfs7"} {
		if !names[want] {
			t.Errorf("meta rule %s missing", want)
		}
	}
}

func TestCompileSubClassChain(t *testing.T) {
	f := newFixture()
	typ := f.v(vocab.RDFType)
	sub := f.v(vocab.RDFSSubClassOf)
	a, b, c := f.iri("A"), f.iri("B"), f.iri("C")
	x := f.iri("x")
	f.add(a, sub, b)
	f.add(b, sub, c)
	f.add(x, typ, a)

	cp := Compile(f.dict, f.g)
	// The schema closure must contain the transitive subclass edge.
	if !cp.Schema.Has(rdf.Triple{S: a, P: sub, O: c}) {
		t.Error("schema closure missing A ⊑ C")
	}
	g := f.g.Clone()
	g.Union(cp.Schema)
	reason.Forward{}.Materialize(g, cp.InstanceRules)
	f.has(t, g, x, typ, b, "direct subclass")
	f.has(t, g, x, typ, c, "transitive subclass")
}

func TestCompilePropertySemantics(t *testing.T) {
	f := newFixture()
	typ := f.v(vocab.RDFType)
	subP := f.v(vocab.RDFSSubPropertyOf)
	dom := f.v(vocab.RDFSDomain)
	rng := f.v(vocab.RDFSRange)
	trans := f.v(vocab.OWLTransitiveProperty)
	sym := f.v(vocab.OWLSymmetricProperty)
	inv := f.v(vocab.OWLInverseOf)

	person := f.iri("Person")
	p, q, anc, friend, childOf, parentOf := f.iri("p"), f.iri("q"), f.iri("anc"), f.iri("friend"), f.iri("childOf"), f.iri("parentOf")
	x, y, z := f.iri("x"), f.iri("y"), f.iri("z")

	f.add(p, subP, q)
	f.add(p, dom, person)
	f.add(p, rng, person)
	f.add(anc, typ, trans)
	f.add(friend, typ, sym)
	f.add(childOf, inv, parentOf)

	f.add(x, p, y)
	f.add(x, anc, y)
	f.add(y, anc, z)
	f.add(x, friend, y)
	f.add(x, childOf, y)
	f.add(z, parentOf, x)

	cp := Compile(f.dict, f.g)
	g := f.g.Clone()
	g.Union(cp.Schema)
	reason.Forward{}.Materialize(g, cp.InstanceRules)

	f.has(t, g, x, q, y, "subPropertyOf")
	f.has(t, g, x, typ, person, "domain")
	f.has(t, g, y, typ, person, "range")
	f.has(t, g, x, anc, z, "transitive")
	f.has(t, g, y, friend, x, "symmetric")
	f.has(t, g, y, parentOf, x, "inverseOf forward")
	f.has(t, g, x, childOf, z, "inverseOf backward")
}

func TestCompileFunctionalAndSameAs(t *testing.T) {
	f := newFixture()
	typ := f.v(vocab.RDFType)
	fun := f.v(vocab.OWLFunctionalProperty)
	ifun := f.v(vocab.OWLInverseFunctionalProperty)
	same := f.v(vocab.OWLSameAs)

	ssn, email := f.iri("ssn"), f.iri("email")
	x, y1, y2, a, b := f.iri("x"), f.iri("y1"), f.iri("y2"), f.iri("a"), f.iri("b")
	e := f.iri("e")
	other := f.iri("other")

	f.add(ssn, typ, fun)
	f.add(email, typ, ifun)
	f.add(x, ssn, y1)
	f.add(x, ssn, y2)
	f.add(a, email, e)
	f.add(b, email, e)
	f.add(y1, other, x)

	cp := Compile(f.dict, f.g)
	g := f.g.Clone()
	g.Union(cp.Schema)
	reason.Forward{}.Materialize(g, cp.InstanceRules)

	f.has(t, g, y1, same, y2, "functional")
	f.has(t, g, y2, same, y1, "sameAs symmetry")
	f.has(t, g, a, same, b, "inverse functional")
	f.has(t, g, y2, other, x, "sameAs subject substitution")
	f.has(t, g, x, ssn, y2, "sameAs object substitution") // already asserted, sanity
}

func TestCompileRestrictions(t *testing.T) {
	f := newFixture()
	typ := f.v(vocab.RDFType)
	onProp := f.v(vocab.OWLOnProperty)
	hasValue := f.v(vocab.OWLHasValue)
	someFrom := f.v(vocab.OWLSomeValuesFrom)
	allFrom := f.v(vocab.OWLAllValuesFrom)
	sub := f.v(vocab.RDFSSubClassOf)

	dept := f.iri("Dept")
	headOf := f.iri("headOf")
	color, red := f.iri("color"), f.iri("red")
	teaches, course := f.iri("teaches"), f.iri("Course")

	rHV := f.iri("RedThing")
	f.add(rHV, onProp, color)
	f.add(rHV, hasValue, red)

	rSV := f.iri("ChairLike")
	f.add(rSV, onProp, headOf)
	f.add(rSV, someFrom, dept)

	rAV := f.iri("TeachesOnlyCourses")
	f.add(rAV, onProp, teaches)
	f.add(rAV, allFrom, course)
	prof := f.iri("Prof")
	f.add(prof, sub, rAV)

	x, d, c1 := f.iri("x"), f.iri("d"), f.iri("c1")
	f.add(d, typ, dept)
	f.add(x, headOf, d)
	f.add(x, color, red)
	f.add(x, typ, prof)
	f.add(x, teaches, c1)

	cp := Compile(f.dict, f.g)
	g := f.g.Clone()
	g.Union(cp.Schema)
	reason.Forward{}.Materialize(g, cp.InstanceRules)

	f.has(t, g, x, typ, rHV, "hasValue classification")
	f.has(t, g, x, typ, rSV, "someValuesFrom")
	f.has(t, g, c1, typ, course, "allValuesFrom")

	// hasValue also works in the other direction: type ⇒ value.
	y := f.iri("y")
	g2 := f.g.Clone()
	g2.Add(rdf.Triple{S: y, P: typ, O: rHV})
	g2.Union(cp.Schema)
	reason.Forward{}.Materialize(g2, cp.InstanceRules)
	f.has(t, g2, y, color, red, "hasValue value derivation")
}

// TestCompileNamesAreUnique: a restriction with two hasValue objects
// compiles to two rules per direction that share a name stem; the compiled
// set must still name every rule once, or reason.Compile rejects it, and
// both values must still be derived.
func TestCompileNamesAreUnique(t *testing.T) {
	f := newFixture()
	typ := f.v(vocab.RDFType)
	color, red, blue := f.iri("color"), f.iri("red"), f.iri("blue")
	r := f.iri("Purple")
	f.add(r, f.v(vocab.OWLOnProperty), color)
	f.add(r, f.v(vocab.OWLHasValue), red)
	f.add(r, f.v(vocab.OWLHasValue), blue)
	y := f.iri("y")
	f.add(y, typ, r)

	cp := Compile(f.dict, f.g)
	names := map[string]bool{}
	for _, rl := range cp.InstanceRules {
		if names[rl.Name] {
			t.Errorf("rule name %q repeated", rl.Name)
		}
		names[rl.Name] = true
	}
	if err := reason.ValidateRules(cp.InstanceRules); err != nil {
		t.Fatal(err)
	}
	g := cp.Start(f.g)
	reason.Forward{}.Materialize(g, cp.InstanceRules)
	f.has(t, g, y, color, red, "first hasValue")
	f.has(t, g, y, color, blue, "second hasValue")
}

func TestCompileIntersectionOf(t *testing.T) {
	f := newFixture()
	typ := f.v(vocab.RDFType)
	inter := f.v(vocab.OWLIntersectionOf)
	first := f.v(vocab.RDFFirst)
	rest := f.v(vocab.RDFRest)
	nilID := f.v(vocab.RDFNil)

	a, b, c := f.iri("A"), f.iri("B"), f.iri("C")
	l1 := f.dict.InternBlank("l1")
	l2 := f.dict.InternBlank("l2")
	f.add(c, inter, l1)
	f.add(l1, first, a)
	f.add(l1, rest, l2)
	f.add(l2, first, b)
	f.add(l2, rest, nilID)

	x, y := f.iri("x"), f.iri("y")
	f.add(x, typ, a)
	f.add(x, typ, b)
	f.add(y, typ, c)

	cp := Compile(f.dict, f.g)
	g := f.g.Clone()
	g.Union(cp.Schema)
	reason.Forward{}.Materialize(g, cp.InstanceRules)

	f.has(t, g, x, typ, c, "intersection composition")
	f.has(t, g, y, typ, a, "intersection member A")
	f.has(t, g, y, typ, b, "intersection member B")

	// The composition rule joins its members on one subject.
	found := false
	for _, r := range cp.InstanceRules {
		if strings.HasPrefix(r.Name, "int-") && len(r.Body) == 2 && !r.IsSingleJoin() {
			t.Errorf("2-member intersection rule %s should be single-join", r.Name)
		}
		if strings.HasPrefix(r.Name, "int-") && len(r.Body) == 2 {
			found = true
		}
	}
	if !found {
		t.Error("no intersection composition rule generated")
	}
}

// TestCompiledRulesAreSingleJoin verifies the paper's §II claim on the LUBM
// schema shape: every compiled rule, intersectionOf composition included,
// is a single-join rule.
func TestCompiledRulesAreSingleJoin(t *testing.T) {
	f := newFixture()
	typ := f.v(vocab.RDFType)
	sub := f.v(vocab.RDFSSubClassOf)
	trans := f.v(vocab.OWLTransitiveProperty)
	f.add(f.iri("A"), sub, f.iri("B"))
	f.add(f.iri("p"), typ, trans)
	// A three-member intersection: its composition rule has three body
	// atoms, all on one subject.
	list := []rdf.ID{f.dict.InternBlank("l1"), f.dict.InternBlank("l2"), f.dict.InternBlank("l3")}
	f.add(f.iri("D"), f.v(vocab.OWLIntersectionOf), list[0])
	for i, member := range []string{"A", "B", "C"} {
		f.add(list[i], f.v(vocab.RDFFirst), f.iri(member))
		next := f.v(vocab.RDFNil)
		if i+1 < len(list) {
			next = list[i+1]
		}
		f.add(list[i], f.v(vocab.RDFRest), next)
	}
	cp := Compile(f.dict, f.g)
	composition := false
	for _, r := range cp.InstanceRules {
		if !r.IsSingleJoin() {
			t.Errorf("compiled rule %s is not single-join: %s", r.Name, r.Format(f.dict))
		}
		composition = composition || strings.HasPrefix(r.Name, "int-") && len(r.Body) == 3
	}
	if !composition {
		t.Error("no three-atom intersection composition rule generated")
	}
}

func TestSplitInstanceSeparatesSchema(t *testing.T) {
	f := newFixture()
	typ := f.v(vocab.RDFType)
	sub := f.v(vocab.RDFSSubClassOf)
	a, b, x := f.iri("A"), f.iri("B"), f.iri("x")
	p := f.iri("p")
	f.add(a, sub, b)        // schema
	f.add(x, typ, a)        // instance (type with non-meta class)
	f.add(x, p, f.iri("y")) // instance
	inst := SplitInstance(f.dict, f.g)
	if len(inst) != 2 {
		t.Fatalf("SplitInstance returned %d triples, want 2", len(inst))
	}
	for _, tr := range inst {
		if tr.P == sub {
			t.Error("schema triple leaked into instance set")
		}
	}
}

func TestSchemaElements(t *testing.T) {
	f := newFixture()
	sub := f.v(vocab.RDFSSubClassOf)
	a, b := f.iri("A"), f.iri("B")
	f.add(a, sub, b)
	cp := Compile(f.dict, f.g)
	elems := SchemaElements(f.dict, cp.Schema)
	for _, id := range []rdf.ID{a, b, sub} {
		if _, ok := elems[id]; !ok {
			t.Errorf("schema element %d missing", id)
		}
	}
	typ := f.v(vocab.RDFType)
	if _, ok := elems[typ]; !ok {
		t.Error("rdf:type must always be a schema element")
	}
	x := f.iri("x")
	if _, ok := elems[x]; ok {
		t.Error("instance resource misclassified as schema element")
	}
}

// TestCompileEquivalences checks equivalentClass/equivalentProperty both
// directions.
func TestCompileEquivalences(t *testing.T) {
	f := newFixture()
	typ := f.v(vocab.RDFType)
	eqC := f.v(vocab.OWLEquivalentClass)
	eqP := f.v(vocab.OWLEquivalentProperty)
	a, b := f.iri("A"), f.iri("B")
	p, q := f.iri("p"), f.iri("q")
	x, y := f.iri("x"), f.iri("y")
	f.add(a, eqC, b)
	f.add(p, eqP, q)
	f.add(x, typ, a)
	f.add(x, p, y)

	cp := Compile(f.dict, f.g)
	g := f.g.Clone()
	g.Union(cp.Schema)
	reason.Forward{}.Materialize(g, cp.InstanceRules)
	f.has(t, g, x, typ, b, "equivalentClass")
	f.has(t, g, x, q, y, "equivalentProperty")
}
