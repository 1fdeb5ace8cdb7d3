package owlhorst

import (
	"fmt"
	"sort"

	"powl/internal/rdf"
	"powl/internal/reason"
	"powl/internal/rules"
	"powl/internal/vocab"
)

// Compiled is the result of compiling an ontology: the schema closure (to be
// replicated on every partition) and the instance rule set the workers run.
type Compiled struct {
	// Schema is the TBox closed under the meta rules.
	Schema *rdf.Graph
	// InstanceRules are the ground-schema rules. All are single-join rules
	// except those generated for owl:intersectionOf, whose body atoms all
	// share the one variable ?x — the "all but one" exception the paper
	// notes in §II.
	InstanceRules []rules.Rule
}

// Compile splits g's live triples into schema and instance triples, closes
// the schema under the OWL-Horst meta rules, and emits the instance rule set
// of the paper's hybrid strategy: one ground rule per schema axiom. The input
// graph is not modified.
func Compile(dict *rdf.Dict, g *rdf.Graph) *Compiled {
	split := newSchemaSplit(dict)
	schema := rdf.NewGraph()
	for _, t := range g.Snapshot().Triples() {
		if split.isSchema(t) {
			schema.Add(t)
		}
	}
	reason.Forward{}.Materialize(schema, MetaRules(dict))
	return &Compiled{Schema: schema, InstanceRules: generate(dict, split.vocabIDs, schema)}
}

// Start returns the graph a closure under the instance rules starts from: a
// copy of base in which every triple reads as asserted, with provenance off,
// plus the schema closure not already in it. As a set that is base's live
// instance triples plus Schema, because Schema starts from exactly base's
// schema triples; it costs one flat copy of base instead of inserting its
// triples again. base is not modified.
func (c *Compiled) Start(base *rdf.Graph) *rdf.Graph {
	g := base.Clone()
	g.ForgetDerivations()
	g.Union(c.Schema)
	return g
}

// SplitInstance returns the live instance (non-schema) triples of g, the
// inputs to data partitioning per Algorithm 1 step 1.
func SplitInstance(dict *rdf.Dict, g *rdf.Graph) []rdf.Triple {
	split := newSchemaSplit(dict)
	var out []rdf.Triple
	for _, t := range g.Snapshot().Triples() {
		if !split.isSchema(t) {
			out = append(out, t)
		}
	}
	return out
}

// SchemaElements returns every resource that appears in the (closed) schema
// or in the vocabulary — classes, restriction nodes, properties. These are
// the "schema elements" of Algorithm 1 step 1: they occur in instance
// triples (e.g. as the object of rdf:type) but act as graph-wide hubs, so
// the data partitioner must not treat them as partitionable nodes; they are
// replicated everywhere instead.
func SchemaElements(dict *rdf.Dict, schema *rdf.Graph) map[rdf.ID]struct{} {
	out := map[rdf.ID]struct{}{}
	for _, t := range schema.TriplesSince(0) {
		out[t.S] = struct{}{}
		out[t.P] = struct{}{}
		out[t.O] = struct{}{}
	}
	// Vocabulary IRIs that may appear in instance triples even when the
	// schema never mentions them (e.g. rdf:type itself). The term view
	// resolves every ID without a lock per term.
	for i, term := range dict.TermView() {
		if term.Kind == rdf.IRI && vocab.IsSchemaIRI(term.Value) {
			out[rdf.ID(i+1)] = struct{}{}
		}
	}
	return out
}

// vocabIDs caches the interned IDs of the vocabulary terms consulted during
// compilation.
type vocabIDs struct {
	typ, subClassOf, subPropertyOf, domain, rng                rdf.ID
	equivClass, equivProp, inverseOf, sameAs                   rdf.ID
	transitive, symmetric, functional, inverseFunctional       rdf.ID
	onProperty, hasValue, someValuesFrom, allValuesFrom        rdf.ID
	intersectionOf, first, rest, nil_                          rdf.ID
	owlClass, rdfsClass, restriction, objectProp, datatypeProp rdf.ID
	rdfProperty, owlThing                                      rdf.ID
}

func newVocabIDs(dict *rdf.Dict) *vocabIDs {
	iri := dict.InternIRI
	return &vocabIDs{
		typ:               iri(vocab.RDFType),
		subClassOf:        iri(vocab.RDFSSubClassOf),
		subPropertyOf:     iri(vocab.RDFSSubPropertyOf),
		domain:            iri(vocab.RDFSDomain),
		rng:               iri(vocab.RDFSRange),
		equivClass:        iri(vocab.OWLEquivalentClass),
		equivProp:         iri(vocab.OWLEquivalentProperty),
		inverseOf:         iri(vocab.OWLInverseOf),
		sameAs:            iri(vocab.OWLSameAs),
		transitive:        iri(vocab.OWLTransitiveProperty),
		symmetric:         iri(vocab.OWLSymmetricProperty),
		functional:        iri(vocab.OWLFunctionalProperty),
		inverseFunctional: iri(vocab.OWLInverseFunctionalProperty),
		onProperty:        iri(vocab.OWLOnProperty),
		hasValue:          iri(vocab.OWLHasValue),
		someValuesFrom:    iri(vocab.OWLSomeValuesFrom),
		allValuesFrom:     iri(vocab.OWLAllValuesFrom),
		intersectionOf:    iri(vocab.OWLIntersectionOf),
		first:             iri(vocab.RDFFirst),
		rest:              iri(vocab.RDFRest),
		nil_:              iri(vocab.RDFNil),
		owlClass:          iri(vocab.OWLClass),
		rdfsClass:         iri(vocab.RDFSClass),
		restriction:       iri(vocab.OWLRestriction),
		objectProp:        iri(vocab.OWLObjectProperty),
		datatypeProp:      iri(vocab.OWLDatatypeProperty),
		rdfProperty:       iri(vocab.RDFProperty),
		owlThing:          iri(vocab.OWLThing),
	}
}

// schemaSplit tells schema triples from instance triples for one pass over
// a graph, resolving each predicate outside the vocabulary switch to its
// namespace once rather than once per triple.
type schemaSplit struct {
	*vocabIDs
	terms []rdf.Term // the dictionary's term view
	ns    []int8     // by predicate ID: 0 not yet seen, 1 schema namespace, -1 other
}

// newSchemaSplit interns the vocabulary into dict and takes its term view,
// which covers every ID of a graph built over dict before the call.
func newSchemaSplit(dict *rdf.Dict) *schemaSplit {
	v := newVocabIDs(dict)
	terms := dict.TermView()
	return &schemaSplit{vocabIDs: v, terms: terms, ns: make([]int8, len(terms)+1)}
}

// isSchema reports whether t belongs to the ontology (TBox) rather than the
// instance data, per Algorithm 1 step 1 ("remove all the tuples involving
// the schema elements").
func (s *schemaSplit) isSchema(t rdf.Triple) bool {
	switch t.P {
	case s.subClassOf, s.subPropertyOf, s.domain, s.rng, s.equivClass,
		s.equivProp, s.inverseOf, s.onProperty, s.hasValue,
		s.someValuesFrom, s.allValuesFrom, s.intersectionOf, s.first, s.rest:
		return true
	case s.typ:
		switch t.O {
		case s.transitive, s.symmetric, s.functional, s.inverseFunctional,
			s.owlClass, s.rdfsClass, s.restriction, s.objectProp,
			s.datatypeProp, s.rdfProperty:
			return true
		}
		return false
	default:
		// A predicate from a schema namespace (e.g. rdfs:label) counts as
		// schema metadata; instance predicates live in application
		// namespaces.
		if s.ns[t.P] == 0 {
			s.ns[t.P] = -1
			if term := s.terms[t.P-1]; term.Kind == rdf.IRI && vocab.IsSchemaIRI(term.Value) {
				s.ns[t.P] = 1
			}
		}
		return s.ns[t.P] == 1
	}
}

// generate emits the instance rules for the closed schema, sorted by name:
// ForEachMatch iterates in map order, and a deterministic rule list is what
// makes compiled rule files and cluster runs reproducible across processes.
func generate(dict *rdf.Dict, v *vocabIDs, schema *rdf.Graph) []rules.Rule {
	var out []rules.Rule
	add := func(r rules.Rule) { out = append(out, r) }
	x, y, z := rules.Var("x"), rules.Var("y"), rules.Var("z")
	p := rules.Var("p")
	typeC := rules.Const(v.typ)
	sameC := rules.Const(v.sameAs)

	isVocab := func(id rdf.ID) bool {
		t := dict.Term(id)
		return t.Kind == rdf.IRI && vocab.IsSchemaIRI(t.Value)
	}

	// Subclass / subproperty / domain / range axioms.
	schema.ForEachMatch(rdf.Wildcard, v.subClassOf, rdf.Wildcard, func(t rdf.Triple) bool {
		if t.S != t.O && !isVocab(t.S) && !isVocab(t.O) {
			add(rules.Rule{
				Name: fmt.Sprintf("sc-%d-%d", t.S, t.O),
				Body: []rules.Atom{{S: x, P: typeC, O: rules.Const(t.S)}},
				Head: []rules.Atom{{S: x, P: typeC, O: rules.Const(t.O)}},
			})
		}
		return true
	})
	schema.ForEachMatch(rdf.Wildcard, v.subPropertyOf, rdf.Wildcard, func(t rdf.Triple) bool {
		if t.S != t.O && !isVocab(t.S) && !isVocab(t.O) {
			add(rules.Rule{
				Name: fmt.Sprintf("sp-%d-%d", t.S, t.O),
				Body: []rules.Atom{{S: x, P: rules.Const(t.S), O: y}},
				Head: []rules.Atom{{S: x, P: rules.Const(t.O), O: y}},
			})
		}
		return true
	})
	schema.ForEachMatch(rdf.Wildcard, v.domain, rdf.Wildcard, func(t rdf.Triple) bool {
		if !isVocab(t.S) {
			add(rules.Rule{
				Name: fmt.Sprintf("dom-%d-%d", t.S, t.O),
				Body: []rules.Atom{{S: x, P: rules.Const(t.S), O: y}},
				Head: []rules.Atom{{S: x, P: typeC, O: rules.Const(t.O)}},
			})
		}
		return true
	})
	schema.ForEachMatch(rdf.Wildcard, v.rng, rdf.Wildcard, func(t rdf.Triple) bool {
		if !isVocab(t.S) {
			add(rules.Rule{
				Name: fmt.Sprintf("rng-%d-%d", t.S, t.O),
				Body: []rules.Atom{{S: x, P: rules.Const(t.S), O: y}},
				Head: []rules.Atom{{S: y, P: typeC, O: rules.Const(t.O)}},
			})
		}
		return true
	})

	// Property characteristics.
	schema.ForEachMatch(rdf.Wildcard, v.typ, v.transitive, func(t rdf.Triple) bool {
		pc := rules.Const(t.S)
		add(rules.Rule{
			Name: fmt.Sprintf("trans-%d", t.S),
			Body: []rules.Atom{{S: x, P: pc, O: y}, {S: y, P: pc, O: z}},
			Head: []rules.Atom{{S: x, P: pc, O: z}},
		})
		return true
	})
	schema.ForEachMatch(rdf.Wildcard, v.typ, v.symmetric, func(t rdf.Triple) bool {
		pc := rules.Const(t.S)
		add(rules.Rule{
			Name: fmt.Sprintf("sym-%d", t.S),
			Body: []rules.Atom{{S: x, P: pc, O: y}},
			Head: []rules.Atom{{S: y, P: pc, O: x}},
		})
		return true
	})
	schema.ForEachMatch(rdf.Wildcard, v.typ, v.functional, func(t rdf.Triple) bool {
		pc := rules.Const(t.S)
		add(rules.Rule{
			Name: fmt.Sprintf("func-%d", t.S),
			Body: []rules.Atom{{S: x, P: pc, O: y}, {S: x, P: pc, O: z}},
			Head: []rules.Atom{{S: y, P: sameC, O: z}},
		})
		return true
	})
	schema.ForEachMatch(rdf.Wildcard, v.typ, v.inverseFunctional, func(t rdf.Triple) bool {
		pc := rules.Const(t.S)
		add(rules.Rule{
			Name: fmt.Sprintf("ifunc-%d", t.S),
			Body: []rules.Atom{{S: x, P: pc, O: z}, {S: y, P: pc, O: z}},
			Head: []rules.Atom{{S: x, P: sameC, O: y}},
		})
		return true
	})
	schema.ForEachMatch(rdf.Wildcard, v.inverseOf, rdf.Wildcard, func(t rdf.Triple) bool {
		pc, qc := rules.Const(t.S), rules.Const(t.O)
		add(rules.Rule{
			Name: fmt.Sprintf("inv-%d-%d", t.S, t.O),
			Body: []rules.Atom{{S: x, P: pc, O: y}},
			Head: []rules.Atom{{S: y, P: qc, O: x}},
		})
		add(rules.Rule{
			Name: fmt.Sprintf("inv-%d-%d-r", t.S, t.O),
			Body: []rules.Atom{{S: x, P: qc, O: y}},
			Head: []rules.Atom{{S: y, P: pc, O: x}},
		})
		return true
	})

	// Restrictions.
	schema.ForEachMatch(rdf.Wildcard, v.onProperty, rdf.Wildcard, func(t rdf.Triple) bool {
		r, prop := t.S, t.O
		rc, pc := rules.Const(r), rules.Const(prop)
		schema.ForEachMatch(r, v.hasValue, rdf.Wildcard, func(hv rdf.Triple) bool {
			vc := rules.Const(hv.O)
			add(rules.Rule{
				Name: fmt.Sprintf("hv1-%d", r),
				Body: []rules.Atom{{S: x, P: pc, O: vc}},
				Head: []rules.Atom{{S: x, P: typeC, O: rc}},
			})
			add(rules.Rule{
				Name: fmt.Sprintf("hv2-%d", r),
				Body: []rules.Atom{{S: x, P: typeC, O: rc}},
				Head: []rules.Atom{{S: x, P: pc, O: vc}},
			})
			return true
		})
		schema.ForEachMatch(r, v.someValuesFrom, rdf.Wildcard, func(sv rdf.Triple) bool {
			add(rules.Rule{
				Name: fmt.Sprintf("svf-%d", r),
				Body: []rules.Atom{{S: x, P: pc, O: y}, {S: y, P: typeC, O: rules.Const(sv.O)}},
				Head: []rules.Atom{{S: x, P: typeC, O: rc}},
			})
			return true
		})
		schema.ForEachMatch(r, v.allValuesFrom, rdf.Wildcard, func(av rdf.Triple) bool {
			add(rules.Rule{
				Name: fmt.Sprintf("avf-%d", r),
				Body: []rules.Atom{{S: x, P: typeC, O: rc}, {S: x, P: pc, O: y}},
				Head: []rules.Atom{{S: y, P: typeC, O: rules.Const(av.O)}},
			})
			return true
		})
		return true
	})

	// intersectionOf: C ≡ C1 ⊓ … ⊓ Cn. The membership-composition rule has
	// an n-atom body — the one non-single-join rule — but every body atom
	// shares ?x, so the ownership argument of §III-A still applies.
	schema.ForEachMatch(rdf.Wildcard, v.intersectionOf, rdf.Wildcard, func(t rdf.Triple) bool {
		members := listMembers(schema, v, t.O)
		if len(members) == 0 {
			return true
		}
		var body []rules.Atom
		for i, m := range members {
			body = append(body, rules.Atom{S: x, P: typeC, O: rules.Const(m)})
			add(rules.Rule{
				Name: fmt.Sprintf("int-%d-m%d", t.S, i),
				Body: []rules.Atom{{S: x, P: typeC, O: rules.Const(t.S)}},
				Head: []rules.Atom{{S: x, P: typeC, O: rules.Const(m)}},
			})
		}
		add(rules.Rule{
			Name: fmt.Sprintf("int-%d", t.S),
			Body: body,
			Head: []rules.Atom{{S: x, P: typeC, O: rules.Const(t.S)}},
		})
		return true
	})

	// owl:sameAs semantics is data-driven and always present.
	add(rules.Rule{
		Name: "same-sym",
		Body: []rules.Atom{{S: x, P: sameC, O: y}},
		Head: []rules.Atom{{S: y, P: sameC, O: x}},
	})
	add(rules.Rule{
		Name: "same-trans",
		Body: []rules.Atom{{S: x, P: sameC, O: y}, {S: y, P: sameC, O: z}},
		Head: []rules.Atom{{S: x, P: sameC, O: z}},
	})
	add(rules.Rule{
		Name: "same-subj",
		Body: []rules.Atom{{S: x, P: sameC, O: y}, {S: x, P: p, O: z}},
		Head: []rules.Atom{{S: y, P: p, O: z}},
	})
	add(rules.Rule{
		Name: "same-obj",
		Body: []rules.Atom{{S: x, P: sameC, O: y}, {S: z, P: p, O: x}},
		Head: []rules.Atom{{S: z, P: p, O: y}},
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].String() < out[j].String()
	})
	// The engines name a rule by its name (provenance records, DRed), so
	// reason.Compile rejects a repeated one. Only a multi-valued axiom — two
	// hasValue on one restriction, two intersectionOf on one class — repeats
	// a name here; the repeats get "-2", "-3", … in the order above.
	seen := map[string]int{}
	for i := range out {
		name := out[i].Name
		if seen[name]++; seen[name] > 1 {
			out[i].Name = fmt.Sprintf("%s-%d", name, seen[name])
		}
	}
	return out
}

// listMembers walks an rdf:first/rdf:rest list and returns its member IDs.
func listMembers(schema *rdf.Graph, v *vocabIDs, head rdf.ID) []rdf.ID {
	var out []rdf.ID
	seen := map[rdf.ID]struct{}{}
	cur := head
	for cur != v.nil_ {
		if _, dup := seen[cur]; dup {
			return out // malformed cyclic list; stop rather than loop
		}
		seen[cur] = struct{}{}
		first := schema.Match(cur, v.first, rdf.Wildcard)
		if len(first) == 0 {
			return out
		}
		out = append(out, first[0].O)
		rest := schema.Match(cur, v.rest, rdf.Wildcard)
		if len(rest) == 0 {
			return out
		}
		cur = rest[0].O
	}
	return out
}
