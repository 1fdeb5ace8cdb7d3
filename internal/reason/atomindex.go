package reason

import (
	"cmp"
	"slices"

	"powl/internal/rdf"
)

// trigger names one atom of one compiled rule: a body atom in the fire
// loop's plans (a delta triple matching it seeds the rule there), a head atom
// in the Retractor's index (a triple matching it may be that rule's
// conclusion). id numbers the body atoms of the whole rule set and indexes
// the fire loop's per-sweep dead mask.
type trigger struct {
	rule    *cRule
	atomIdx int
	id      int
}

// atomIndex finds the atoms a triple can match without testing each one. It
// is keyed on an atom's constant predicate and, where the object is a
// constant too, on (predicate, object): lookup(t) is the list a
// predicate-only index returns for t.P — the atoms with constant predicate
// t.P, then every variable-predicate atom, each group in the order the atoms
// were given — minus the atoms whose constant object differs from t.O. This
// is the alpha-memory discrimination of a Rete network: an atom's constants
// are tested once per triple through the index, not once per firing. OWL-Horst
// instance rules are mostly (?x rdf:type #C) atoms, so on rdf:type the object
// is what tells them apart.
//
// The body-atom indexes of a Program's strata are the one answer to "which
// atoms can this triple meet": the fire loop dispatches and routes through
// them, Rete's alpha nodes are their triggers, and AppendConsumers (the
// rule-partition router's question) reads them. The subject is not
// indexed; a reader that needs it exact checks subjectAgrees.
//
// Every list is a window into one flat array, so a lookup is one or two map
// probes and allocates nothing.
type atomIndex struct {
	lists []trigger
	byP   map[rdf.ID]atomSpan // constant predicate → its list
	byPO  map[uint64]atomSpan // poKey(p, o) → p's list narrowed to object o
	any   atomSpan            // for a predicate no atom names: the variable-predicate atoms
	n     int                 // atoms indexed
}

// atomSpan is one list, lists[lo:hi]. A predicate's span holds its
// variable-object atoms; keyed marks that some of its atoms have a constant
// object, so byPO holds one list per such object and the span serves every
// other object.
type atomSpan struct {
	lo, hi int32
	keyed  bool
}

// poKey packs a (predicate, object) pair; the variable-predicate list files
// its narrowings under predicate rdf.Wildcard.
func poKey(p, o rdf.ID) uint64 { return uint64(p)<<32 | uint64(o) }

// lookup returns the atoms t can match on predicate and object, in index
// order. The result aliases the index; callers only read it.
//
//powl:allocfree trigger dispatch runs once per delta triple per stratum
func (ix *atomIndex) lookup(t rdf.Triple) []trigger {
	p := t.P
	sp, ok := ix.byP[p]
	if !ok {
		p, sp = rdf.Wildcard, ix.any
	}
	if sp.keyed {
		if k, ok := ix.byPO[poKey(p, t.O)]; ok {
			sp = k
		}
	}
	return ix.lists[sp.lo:sp.hi]
}

// subjectAgrees reports whether a's subject, when a constant, is t's: the
// one position lookup does not index.
func (a cAtom) subjectAgrees(t rdf.Triple) bool { return a.s.isVar || a.s.id == t.S }

// newAtomIndex indexes trs; atoms[i] is the atom trs[i] names.
func newAtomIndex(trs []trigger, atoms []cAtom) atomIndex {
	ix := atomIndex{n: len(trs), byP: map[rdf.ID]atomSpan{}, byPO: map[uint64]atomSpan{}}
	// Group by predicate. Variables carry id 0 (rdf.Wildcard), so they sort
	// first; a stable sort keeps each group in the given order.
	order := make([]int, len(trs))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(atoms[a].p.id, atoms[b].p.id) })
	nAny := 0
	for nAny < len(order) && atoms[order[nAny]].p.isVar {
		nAny++
	}

	var seq, vars, consts []int
	// emit appends the atoms of seq at positions a ∪ b (both ascending) in
	// seq order, and returns their span.
	emit := func(a, b []int) atomSpan {
		sp := atomSpan{lo: int32(len(ix.lists))}
		for len(a) > 0 || len(b) > 0 {
			var k int
			if len(b) == 0 || len(a) > 0 && a[0] < b[0] {
				k, a = a[0], a[1:]
			} else {
				k, b = b[0], b[1:]
			}
			ix.lists = append(ix.lists, trs[seq[k]])
		}
		sp.hi = int32(len(ix.lists))
		return sp
	}
	// file builds predicate p's list — run, then the variable-predicate
	// atoms — and one narrowing per constant object in it. A narrowing merges
	// the object's atoms with the variable-object ones, so building costs the
	// size of what is built, not objects × atoms.
	file := func(p rdf.ID, run []int) atomSpan {
		seq = append(append(seq[:0], run...), order[:nAny]...)
		vars, consts = vars[:0], consts[:0]
		for k, i := range seq {
			if atoms[i].o.isVar {
				vars = append(vars, k)
			} else {
				consts = append(consts, k)
			}
		}
		sp := emit(vars, nil)
		sp.keyed = len(consts) > 0
		slices.SortStableFunc(consts, func(a, b int) int { return cmp.Compare(atoms[seq[a]].o.id, atoms[seq[b]].o.id) })
		for lo := 0; lo < len(consts); {
			o := atoms[seq[consts[lo]]].o.id
			hi := lo + 1
			for hi < len(consts) && atoms[seq[consts[hi]]].o.id == o {
				hi++
			}
			ix.byPO[poKey(p, o)] = emit(vars, consts[lo:hi])
			lo = hi
		}
		return sp
	}

	ix.any = file(rdf.Wildcard, nil)
	for lo := nAny; lo < len(order); {
		p := atoms[order[lo]].p.id
		hi := lo + 1
		for hi < len(order) && atoms[order[hi]].p.id == p {
			hi++
		}
		ix.byP[p] = file(p, order[lo:hi])
		lo = hi
	}
	return ix
}
