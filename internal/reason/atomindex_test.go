package reason

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"powl/internal/rdf"
	"powl/internal/rules"
)

// refDispatch is the reference the atom index is checked against: the
// predicate-only trigger index the fire loop and the Retractor used before
// it. Triggers are filed by constant predicate in the given order;
// variable-predicate triggers form anyPred and are appended to every
// predicate's list, so a triple's candidates are one lookup.
type refDispatch struct {
	byPred  map[rdf.ID][]trigger
	anyPred []trigger
}

func newRefDispatch(trs []trigger, atoms []cAtom) refDispatch {
	r := refDispatch{byPred: map[rdf.ID][]trigger{}}
	for i, tr := range trs {
		if atoms[i].p.isVar {
			r.anyPred = append(r.anyPred, tr)
		} else {
			r.byPred[atoms[i].p.id] = append(r.byPred[atoms[i].p.id], tr)
		}
	}
	for p, l := range r.byPred {
		r.byPred[p] = append(l, r.anyPred...)
	}
	return r
}

func (r refDispatch) triggers(t rdf.Triple) []trigger {
	if l, ok := r.byPred[t.P]; ok {
		return l
	}
	return r.anyPred
}

// index is r as an atomIndex with no object keys, so the fire loop can
// dispatch through it.
func (r refDispatch) index(n int) atomIndex {
	ix := atomIndex{n: n, byP: map[rdf.ID]atomSpan{}}
	file := func(l []trigger) atomSpan {
		lo := len(ix.lists)
		ix.lists = append(ix.lists, l...)
		return atomSpan{lo: int32(lo), hi: int32(len(ix.lists))}
	}
	for p, l := range r.byPred {
		ix.byP[p] = file(l)
	}
	ix.any = file(r.anyPred)
	return ix
}

// refPlan is p dispatching through the reference index and, with no
// triggers listed for markDead, pruning nothing: the plan the fire loop ran
// before the atom index.
func refPlan(p stratumPlan) stratumPlan {
	atoms := make([]cAtom, len(p.trs))
	for i, tr := range p.trs {
		atoms[i] = tr.rule.body[tr.atomIdx]
	}
	return stratumPlan{idx: newRefDispatch(p.trs, atoms).index(len(p.trs)), pieces: p.pieces}
}

// narrow is the atom index's contract stated on the reference: the
// predicate-only list minus the atoms whose constant object differs from
// t.O, in the same order.
func narrow(l []trigger, atom func(trigger) cAtom, t rdf.Triple) []trigger {
	var out []trigger
	for _, tr := range l {
		if a := atom(tr); a.o.isVar || a.o.id == t.O {
			out = append(out, tr)
		}
	}
	return out
}

// randomRules draws n rules over small term pools, so constants collide with
// the random triples often: every position constant or variable, variable
// predicates, repeated variables, constant subjects, one to three body
// atoms and one or two head atoms, each head variable bound by the body.
func randomRules(rng *rand.Rand, n int) []rules.Rule {
	vars := []string{"a", "b", "c", "d"}
	term := func(pool int) rules.TermSpec {
		if rng.Intn(2) == 0 {
			return rules.Var(vars[rng.Intn(len(vars))])
		}
		return rules.Const(rdf.ID(1 + rng.Intn(pool)))
	}
	atom := func() rules.Atom {
		return rules.Atom{S: term(6), P: term(4), O: term(6)}
	}
	rs := make([]rules.Rule, n)
	for i := range rs {
		rs[i].Name = fmt.Sprintf("r%d", i)
		for j := 1 + rng.Intn(3); j > 0; j-- {
			rs[i].Body = append(rs[i].Body, atom())
		}
		for j := 1 + rng.Intn(2); j > 0; j-- {
			rs[i].Head = append(rs[i].Head, atom())
		}
		rs[i] = safe(rs[i])
	}
	return rs
}

// safe replaces each head variable the body does not bind with a constant,
// so a random rule compiles.
func safe(r rules.Rule) rules.Rule {
	bound := map[string]bool{}
	for _, v := range r.BodyVars() {
		bound[v] = true
	}
	ground := func(t rules.TermSpec) rules.TermSpec {
		if t.IsVar && !bound[t.Var] {
			return rules.Const(rdf.ID(1 + t.Var[0] - 'a'))
		}
		return t
	}
	for i, h := range r.Head {
		r.Head[i] = rules.Atom{S: ground(h.S), P: ground(h.P), O: ground(h.O)}
	}
	return r
}

// TestAtomIndexMatchesReference is the atom index's identity property: over
// random compiled rule sets and triples, every stratum plan's lookup and the
// program's head lookup (the Retractor's) equal the predicate-only reference list narrowed
// on the triple's object — same triggers, same order — and trigger ids
// number the rule set's body atoms once each.
func TestAtomIndexMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	body := func(tr trigger) cAtom { return tr.rule.body[tr.atomIdx] }
	head := func(tr trigger) cAtom { return tr.rule.head[tr.atomIdx] }
	for iter := 0; iter < 300; iter++ {
		rs := randomRules(rng, 1+rng.Intn(12))
		prog := mustCompile(rs)
		crs, plans := prog.rules, prog.plans

		var refs []refDispatch
		ids := map[int]bool{}
		for _, p := range plans {
			atoms := make([]cAtom, len(p.trs))
			for i, tr := range p.trs {
				atoms[i] = body(tr)
				ids[tr.id] = true
			}
			refs = append(refs, newRefDispatch(p.trs, atoms))
		}
		nbody := 0
		for _, cr := range crs {
			nbody += len(cr.body)
		}
		for id := 0; id < nbody; id++ {
			if !ids[id] {
				t.Fatalf("iter %d: trigger ids %v do not number %d body atoms", iter, ids, nbody)
			}
		}

		var htrs []trigger
		var hatoms []cAtom
		for i := range crs {
			for j, a := range crs[i].head {
				htrs = append(htrs, trigger{rule: &crs[i], atomIdx: j})
				hatoms = append(hatoms, a)
			}
		}
		href := newRefDispatch(htrs, hatoms)

		for k := 0; k < 50; k++ {
			tr := rdf.Triple{S: rdf.ID(1 + rng.Intn(7)), P: rdf.ID(1 + rng.Intn(5)), O: rdf.ID(1 + rng.Intn(7))}
			for s := range plans {
				got := plans[s].idx.lookup(tr)
				want := narrow(refs[s].triggers(tr), body, tr)
				if !slices.Equal(got, want) {
					t.Fatalf("iter %d stratum %d triple %v: lookup %v, reference %v\nrules %v", iter, s, tr, got, want, rs)
				}
			}
			if got, want := prog.heads.lookup(tr), narrow(href.triggers(tr), head, tr); !slices.Equal(got, want) {
				t.Fatalf("iter %d triple %v: head lookup %v, reference %v\nrules %v", iter, tr, got, want, rs)
			}
		}
	}
}
