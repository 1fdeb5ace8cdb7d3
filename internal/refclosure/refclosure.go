// Package refclosure is test support: an independent reference evaluator
// for datalog closures. It has its own naive store and its own matcher,
// works on the parsed rules (rules.Rule) rather than anything package
// reason compiles, and shares no code with rdf.Graph's indexes or with the
// engines — so a test that compares an engine's closure against Closure
// checks the production path against something other than itself. It is
// slow on purpose (naive fixpoint, no join ordering); only tests import it.
package refclosure

import (
	"powl/internal/rdf"
	"powl/internal/rules"
)

// refStore is a deliberately naive triple store — a plain set plus one
// by-predicate bucket — sharing no code with rdf.Graph's compact log and
// posting-list indexes.
type refStore struct {
	set map[rdf.Triple]struct{}
	byP map[rdf.ID][]rdf.Triple
	all []rdf.Triple
}

func newRefStore() *refStore {
	return &refStore{set: map[rdf.Triple]struct{}{}, byP: map[rdf.ID][]rdf.Triple{}}
}

func (r *refStore) add(t rdf.Triple) bool {
	if _, ok := r.set[t]; ok {
		return false
	}
	r.set[t] = struct{}{}
	r.byP[t.P] = append(r.byP[t.P], t)
	r.all = append(r.all, t)
	return true
}

// refBind extends the named-variable binding with one atom/triple match,
// returning the variables it newly bound (for undo) and whether it matched.
func refBind(a rules.Atom, t rdf.Triple, b map[string]rdf.ID) ([]string, bool) {
	var fresh []string
	undo := func() {
		for _, v := range fresh {
			delete(b, v)
		}
	}
	for _, pv := range [3]struct {
		spec rules.TermSpec
		val  rdf.ID
	}{{a.S, t.S}, {a.P, t.P}, {a.O, t.O}} {
		if !pv.spec.IsVar {
			if pv.spec.ID != pv.val {
				undo()
				return nil, false
			}
			continue
		}
		if cur, ok := b[pv.spec.Var]; ok {
			if cur != pv.val {
				undo()
				return nil, false
			}
			continue
		}
		b[pv.spec.Var] = pv.val
		fresh = append(fresh, pv.spec.Var)
	}
	return fresh, true
}

// refEvalBody enumerates body matches left to right (no reordering, no
// selectivity tricks) and calls yield under each complete binding.
func refEvalBody(st *refStore, body []rules.Atom, i int, b map[string]rdf.ID, yield func()) {
	if i == len(body) {
		yield()
		return
	}
	a := body[i]
	candidates := st.all
	if !a.P.IsVar {
		candidates = st.byP[a.P.ID]
	} else if v, ok := b[a.P.Var]; ok {
		candidates = st.byP[v]
	}
	// Appends during iteration are invisible to this range (len is
	// snapshotted); the enclosing naive fixpoint loop re-runs the rule, so
	// nothing is lost.
	for _, t := range candidates {
		if fresh, ok := refBind(a, t, b); ok {
			refEvalBody(st, body, i+1, b, yield)
			for _, v := range fresh {
				delete(b, v)
			}
		}
	}
}

func refInstantiate(a rules.Atom, b map[string]rdf.ID) rdf.Triple {
	resolve := func(s rules.TermSpec) rdf.ID {
		if s.IsVar {
			return b[s.Var]
		}
		return s.ID
	}
	return rdf.Triple{S: resolve(a.S), P: resolve(a.P), O: resolve(a.O)}
}

// Closure computes the closure of base under rs by naive (not semi-naive)
// fixpoint iteration — every rule re-evaluated from scratch each pass until
// a full pass derives nothing new — and returns it as a set.
func Closure(base []rdf.Triple, rs []rules.Rule) map[rdf.Triple]struct{} {
	st := newRefStore()
	for _, t := range base {
		st.add(t)
	}
	for changed := true; changed; {
		changed = false
		for _, r := range rs {
			b := map[string]rdf.ID{}
			refEvalBody(st, r.Body, 0, b, func() {
				for _, h := range r.Head {
					if st.add(refInstantiate(h, b)) {
						changed = true
					}
				}
			})
		}
	}
	return st.set
}
