// Package rules provides the datalog rule model used by the OWL-Horst
// reasoners: atoms over variables and interned constants, a Jena-style text
// rule parser, single-join classification, and the rule dependency graph
// used by the rule-partitioning strategy (paper §III-B).
package rules

import (
	"fmt"
	"sort"
	"strings"

	"powl/internal/rdf"
)

// TermSpec is one position of an atom: either a named variable or an
// interned constant.
type TermSpec struct {
	IsVar bool
	ID    rdf.ID // valid when !IsVar
	Var   string // valid when IsVar
}

// Var returns a variable TermSpec.
func Var(name string) TermSpec { return TermSpec{IsVar: true, Var: name} }

// Const returns a constant TermSpec.
func Const(id rdf.ID) TermSpec { return TermSpec{ID: id} }

func (t TermSpec) String() string {
	if t.IsVar {
		return "?" + t.Var
	}
	return fmt.Sprintf("#%d", t.ID)
}

// Format renders the term using dict for constants.
func (t TermSpec) Format(dict *rdf.Dict) string {
	if t.IsVar {
		return "?" + t.Var
	}
	return dict.Term(t.ID).String()
}

// Atom is a triple pattern (s, p, o) over TermSpecs.
type Atom struct {
	S, P, O TermSpec
}

func (a Atom) String() string {
	return "(" + a.S.String() + " " + a.P.String() + " " + a.O.String() + ")"
}

// Format renders the atom using dict for constants.
func (a Atom) Format(dict *rdf.Dict) string {
	return "(" + a.S.Format(dict) + " " + a.P.Format(dict) + " " + a.O.Format(dict) + ")"
}

// Vars returns the variable names of the atom in position order.
func (a Atom) Vars() []string {
	var vs []string
	for _, t := range []TermSpec{a.S, a.P, a.O} {
		if t.IsVar {
			vs = append(vs, t.Var)
		}
	}
	return vs
}

// Rule is a datalog rule: Head ← Body. OWL-Horst rules have a single head
// atom; the slice form also accommodates authored multi-head rules, which
// the engines treat as one rule per head atom.
type Rule struct {
	Name string
	Body []Atom
	Head []Atom
}

func (r Rule) String() string {
	var b strings.Builder
	b.WriteByte('[')
	b.WriteString(r.Name)
	b.WriteString(": ")
	for i, a := range r.Body {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(a.String())
	}
	b.WriteString(" -> ")
	for i, a := range r.Head {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(a.String())
	}
	b.WriteByte(']')
	return b.String()
}

// Format renders the rule using dict for constants.
func (r Rule) Format(dict *rdf.Dict) string {
	var b strings.Builder
	b.WriteByte('[')
	b.WriteString(r.Name)
	b.WriteString(": ")
	for i, a := range r.Body {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(a.Format(dict))
	}
	b.WriteString(" -> ")
	for i, a := range r.Head {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(a.Format(dict))
	}
	b.WriteByte(']')
	return b.String()
}

// BodyVars returns the sorted set of variable names occurring in the body.
func (r Rule) BodyVars() []string {
	set := map[string]struct{}{}
	for _, a := range r.Body {
		for _, v := range a.Vars() {
			set[v] = struct{}{}
		}
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// IsSafe reports whether every head variable occurs in the body, the datalog
// safety condition required for bottom-up evaluation.
func (r Rule) IsSafe() bool {
	body := map[string]struct{}{}
	for _, v := range r.BodyVars() {
		body[v] = struct{}{}
	}
	for _, a := range r.Head {
		for _, v := range a.Vars() {
			if _, ok := body[v]; !ok {
				return false
			}
		}
	}
	return true
}

// IsSingleJoin reports whether the rule is a single-join rule in the sense
// the paper's data partitioning needs (§II): some variable occurs in the
// subject or object position of every body atom. Triples are placed on the
// owners of their subject and object, so only such a variable guarantees
// that every joinable tuple is present on the shared resource's owner; this
// is the n-ary generalization (the intersectionOf composition rules) of the
// paper's two-atom case. A variable shared only through a predicate
// position, as in the rdfs7 meta rule, does not qualify.
func (r Rule) IsSingleJoin() bool {
	if len(r.Body) < 2 {
		return true
	}
	for _, v := range [2]TermSpec{r.Body[0].S, r.Body[0].O} {
		if v.IsVar && r.allBodyAtomsOwn(v.Var) {
			return true
		}
	}
	return false
}

// allBodyAtomsOwn reports whether variable v is the subject or object of
// every body atom.
func (r Rule) allBodyAtomsOwn(v string) bool {
	for _, a := range r.Body {
		if !(a.S.IsVar && a.S.Var == v) && !(a.O.IsVar && a.O.Var == v) {
			return false
		}
	}
	return true
}

// unifies reports whether atoms a and b can match the same triple: each
// position unifies when either side is a variable or the constants agree.
func unifies(a, b Atom) bool {
	pairs := [3][2]TermSpec{{a.S, b.S}, {a.P, b.P}, {a.O, b.O}}
	for _, p := range pairs {
		if !p[0].IsVar && !p[1].IsVar && p[0].ID != p[1].ID {
			return false
		}
	}
	return true
}

// DepEdge is a directed, weighted edge of the rule dependency graph: a triple
// produced by rule From may feed a body atom of rule To.
type DepEdge struct {
	From, To int
	Weight   int
}

// DependencyGraph computes the rule dependency graph of Algorithm 2: a vertex
// per rule and an edge (r1 → r2) whenever some head atom of r1 unifies with
// some body atom of r2. Edge weight counts the number of such head/body atom
// pairs.
func DependencyGraph(rs []Rule) []DepEdge {
	var edges []DepEdge
	for i, r1 := range rs {
		for j, r2 := range rs {
			w := 0
			for _, h := range r1.Head {
				for _, b := range r2.Body {
					if unifies(h, b) {
						w++
					}
				}
			}
			if w > 0 {
				edges = append(edges, DepEdge{From: i, To: j, Weight: w})
			}
		}
	}
	return edges
}
