// Package datagen generates the three benchmark datasets of the paper's
// evaluation, scaled to run on one machine:
//
//   - LUBM  — the Lehigh University Benchmark: universities, departments,
//     faculty, students, courses, publications. Strong intra-university
//     locality; a class hierarchy, transitive subOrganizationOf, an
//     inverseOf pair, a someValuesFrom Chair definition, and an
//     allValuesFrom axiom that triggers the backward engine's worst-case
//     extent scans (the behaviour behind the paper's super-linear LUBM
//     speedups).
//   - UOBM  — the University Ontology Benchmark shape: LUBM-like entities
//     plus dense cross-university links (symmetric friendships, cross
//     enrolment, same-home-town links), which raise the edge cut of any
//     partitioning and push speedups sub-linear, as in the paper. It has
//     no owl:sameAs instance data (uobm.go says why); no generator emits
//     owl:sameAs.
//   - MDC   — a stand-in for the paper's proprietary Chevron oilfield
//     dataset: fields, wells, devices, sensors with deep transitive partOf
//     chains and near-perfect per-field locality.
//
// All generators are deterministic given their Config.
package datagen

import (
	"fmt"
	"math/rand"
	"strings"

	"powl/internal/rdf"
	"powl/internal/vocab"
)

// Dataset bundles a generated benchmark: its dictionary, the graph holding
// TBox and ABox triples, and the locality key function used by the
// domain-specific partitioning policy.
type Dataset struct {
	Name  string
	Dict  *rdf.Dict
	Graph *rdf.Graph
	// DomainKey extracts the locality group of a term ("" if none); for the
	// university benchmarks it is the university, for MDC the field.
	DomainKey func(rdf.Term) string
}

// builder wraps the common triple-emission plumbing of the generators.
type builder struct {
	dict *rdf.Dict
	g    *rdf.Graph
	rng  *rand.Rand

	typ, subClassOf, subPropertyOf, domain, rng_, transitive,
	symmetric, inverseOf, someValuesFrom, allValuesFrom, onProperty,
	owlClass, objectProp, restriction, sameAs rdf.ID
}

func newBuilder(seed int64) *builder {
	d := rdf.NewDict()
	b := &builder{dict: d, g: rdf.NewGraph(), rng: rand.New(rand.NewSource(seed))}
	b.typ = d.InternIRI(vocab.RDFType)
	b.subClassOf = d.InternIRI(vocab.RDFSSubClassOf)
	b.subPropertyOf = d.InternIRI(vocab.RDFSSubPropertyOf)
	b.domain = d.InternIRI(vocab.RDFSDomain)
	b.rng_ = d.InternIRI(vocab.RDFSRange)
	b.transitive = d.InternIRI(vocab.OWLTransitiveProperty)
	b.symmetric = d.InternIRI(vocab.OWLSymmetricProperty)
	b.inverseOf = d.InternIRI(vocab.OWLInverseOf)
	b.someValuesFrom = d.InternIRI(vocab.OWLSomeValuesFrom)
	b.allValuesFrom = d.InternIRI(vocab.OWLAllValuesFrom)
	b.onProperty = d.InternIRI(vocab.OWLOnProperty)
	b.owlClass = d.InternIRI(vocab.OWLClass)
	b.objectProp = d.InternIRI(vocab.OWLObjectProperty)
	b.restriction = d.InternIRI(vocab.OWLRestriction)
	// No generator emits owl:sameAs; the term is interned anyway so that
	// every generated dictionary keeps the IDs it has always had.
	b.sameAs = d.InternIRI(vocab.OWLSameAs)
	return b
}

func (b *builder) iri(s string) rdf.ID { return b.dict.InternIRI(s) }

func (b *builder) add(s, p, o rdf.ID) { b.g.Add(rdf.Triple{S: s, P: p, O: o}) }

// class declares a class, optionally a subclass of parents.
func (b *builder) class(iri string, parents ...rdf.ID) rdf.ID {
	c := b.iri(iri)
	b.add(c, b.typ, b.owlClass)
	for _, p := range parents {
		b.add(c, b.subClassOf, p)
	}
	return c
}

// prop declares an object property with optional domain and range (0 skips).
func (b *builder) prop(iri string, dom, ran rdf.ID) rdf.ID {
	p := b.iri(iri)
	b.add(p, b.typ, b.objectProp)
	if dom != 0 {
		b.add(p, b.domain, dom)
	}
	if ran != 0 {
		b.add(p, b.rng_, ran)
	}
	return p
}

// someValues declares R ≡ ∃prop.filler as a restriction node and returns it.
func (b *builder) someValues(iri string, prop, filler rdf.ID) rdf.ID {
	r := b.iri(iri)
	b.add(r, b.typ, b.restriction)
	b.add(r, b.onProperty, prop)
	b.add(r, b.someValuesFrom, filler)
	return r
}

// allValues declares R ≡ ∀prop.filler as a restriction node and returns it.
func (b *builder) allValues(iri string, prop, filler rdf.ID) rdf.ID {
	r := b.iri(iri)
	b.add(r, b.typ, b.restriction)
	b.add(r, b.onProperty, prop)
	b.add(r, b.allValuesFrom, filler)
	return r
}

// between returns a uniform int in [lo, hi].
func (b *builder) between(lo, hi int) int {
	if hi <= lo {
		return lo
	}
	return lo + b.rng.Intn(hi-lo+1)
}

// MarkerKey is the generators' locality-key convention as a DomainKey: a
// term's key is the first occurrence of marker in its text plus the digits
// right after it ("univ12" in ".../univ12/dept3"), and "" when marker does
// not occur or no digit follows it. It works on both IRIs and literals
// because the generators embed the locality group in every name.
func MarkerKey(marker string) func(rdf.Term) string {
	return func(t rdf.Term) string {
		s := t.Value
		i := strings.Index(s, marker)
		if i < 0 {
			return ""
		}
		j := i + len(marker)
		for j < len(s) && s[j] >= '0' && s[j] <= '9' {
			j++
		}
		if j == i+len(marker) {
			return ""
		}
		return s[i:j]
	}
}

// lit interns a plain string literal.
func (b *builder) lit(format string, args ...any) rdf.ID {
	return b.dict.InternLiteral(`"` + fmt.Sprintf(format, args...) + `"`)
}
