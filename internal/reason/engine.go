// Package reason provides the rule engines behind powl's reasoning, all
// operating on datalog rules over RDF triples:
//
//   - Forward: semi-naive bottom-up evaluation to fixpoint — one fire loop
//     (parallel.go) at any thread count. Fast, and the engine every
//     production path runs.
//   - Hybrid: the strategy of the paper's §V — the ontology is first
//     compiled into instance rules (package owlhorst), then a tabled SLD
//     backward engine materializes the KB by issuing one "all statements
//     about this resource" query per resource, exactly as Jena's hybrid
//     reasoner does. Its per-query cost grows with the size of the searched
//     partition, which is what produces the paper's super-linear speedups.
//
// Both engines compute the same closure (tested); they differ only in cost
// profile.
package reason

import (
	"context"
	"fmt"
	"math/bits"

	"powl/internal/rdf"
	"powl/internal/rules"
)

// Engine materializes the closure of a graph under a rule set. It is the
// one contract the cluster layers hold a reasoner to (paper §V: any
// reasoner with datalog semantics fits): a cancellable full
// materialization and a cancellable incremental close. Forward, Hybrid and
// Rete implement it, and each also offers plain Materialize/MaterializeFrom
// convenience methods that run under context.Background and panic on an
// inexecutable rule set.
type Engine interface {
	// Name identifies the engine in reports ("forward", "hybrid").
	Name() string
	// MaterializeCtx adds all derivable triples to g and returns the number
	// of triples added. It stops with ctx.Err() when ctx is cancelled or
	// its deadline passes, leaving g in a consistent (sound but possibly
	// incomplete) state; the cluster layer uses this to enforce per-round
	// deadlines and run cancellation.
	MaterializeCtx(ctx context.Context, g *rdf.Graph, rs []rules.Rule) (int, error)
	// MaterializeFromCtx adds all triples derivable from g given that g was
	// closed under rs before the seed tuples were inserted, and returns the
	// number added. The cluster workers use it for every round after the
	// first: the graph was at fixpoint at the end of the previous round, so
	// only derivations involving the newly received seeds can be missing.
	// Calling it with an arbitrary (non-closed) g is not complete — use
	// MaterializeCtx for that.
	MaterializeFromCtx(ctx context.Context, g *rdf.Graph, rs []rules.Rule, seeds []rdf.Triple) (int, error)
}

// slotTerm is a body/head position in compiled form: either a constant ID or
// a variable slot index.
type slotTerm struct {
	isVar bool
	id    rdf.ID
	slot  int
}

type cAtom struct {
	s, p, o slotTerm
}

type cRule struct {
	name  string
	body  []cAtom
	head  []cAtom
	nslot int
	// idx is the rule's position in the compiled set — the ruleProf tally
	// index when the materialization is being profiled.
	idx int
}

// maxSlots bounds the variables of one rule: slot sets are tracked as uint64
// bitmasks on the zero-allocation bind/unbind path. OWL-Horst rules use at
// most a handful of variables, so the bound is far from any real rule set.
const maxSlots = 64

// ValidateRules reports whether the engines can execute every rule in rs —
// today the only way a parsed rule can be inexecutable is by exceeding
// maxSlots variables. It is the construction-time validation entry:
// core.Config paths and serve.New call it up front so a bad ruleset
// surfaces as an error when the KB is built, not as a panic at materialize
// time inside a live server.
func ValidateRules(rs []rules.Rule) error {
	_, err := compileRules(rs)
	return err
}

// mustCompileRules is compileRules for construction-time callers whose rule
// set was already validated (ValidateRules); it panics on a rule the
// engines cannot execute.
func mustCompileRules(rs []rules.Rule) []cRule {
	crs, err := compileRules(rs)
	if err != nil {
		panic(err)
	}
	return crs
}

// compileRules lowers parsed rules into slot-indexed form. Variable names are
// assigned dense slots per rule.
func compileRules(rs []rules.Rule) ([]cRule, error) {
	out := make([]cRule, 0, len(rs))
	for _, r := range rs {
		slots := map[string]int{}
		lower := func(t rules.TermSpec) slotTerm {
			if !t.IsVar {
				return slotTerm{id: t.ID}
			}
			s, ok := slots[t.Var]
			if !ok {
				s = len(slots)
				slots[t.Var] = s
			}
			return slotTerm{isVar: true, slot: s}
		}
		lowerAtom := func(a rules.Atom) cAtom {
			return cAtom{s: lower(a.S), p: lower(a.P), o: lower(a.O)}
		}
		cr := cRule{name: r.Name, idx: len(out)}
		for _, a := range r.Body {
			cr.body = append(cr.body, lowerAtom(a))
		}
		for _, a := range r.Head {
			cr.head = append(cr.head, lowerAtom(a))
		}
		cr.nslot = len(slots)
		if cr.nslot > maxSlots {
			return nil, fmt.Errorf("reason: rule %q uses %d variables; the engines support at most %d", r.Name, cr.nslot, maxSlots)
		}
		out = append(out, cr)
	}
	return out, nil
}

// env is a per-rule binding environment: env[slot] == 0 means unbound
// (term IDs are always ≥ 1).
type env []rdf.ID

// resolve returns the pattern ID for a position under e: the constant, the
// bound value, or Wildcard.
func (e env) resolve(t slotTerm) rdf.ID {
	if !t.isVar {
		return t.id
	}
	return e[t.slot]
}

// bindTriple attempts to extend e so that atom a matches triple t. It
// returns a bitmask of the slots newly bound (for undoing) and whether the
// match is consistent. The mask representation keeps the hot join path free
// of per-bind slice allocations; compileRules enforces nslot <= maxSlots.
//
//powl:allocfree per-candidate bind/unbind must stay mask-only
func (e env) bindTriple(a cAtom, t rdf.Triple) (uint64, bool) {
	var bound uint64
	for _, pv := range [3]struct {
		term slotTerm
		val  rdf.ID
	}{{a.s, t.S}, {a.p, t.P}, {a.o, t.O}} {
		if !pv.term.isVar {
			if pv.term.id != pv.val {
				e.unbind(bound)
				return 0, false
			}
			continue
		}
		if cur := e[pv.term.slot]; cur != 0 {
			if cur != pv.val {
				e.unbind(bound)
				return 0, false
			}
			continue
		}
		e[pv.term.slot] = pv.val
		bound |= 1 << pv.term.slot
	}
	return bound, true
}

// unbind clears the slots named by the bitmask.
func (e env) unbind(bound uint64) {
	for bound != 0 {
		s := bits.TrailingZeros64(bound)
		e[s] = 0
		bound &= bound - 1
	}
}

// instantiate builds the triple for a fully-bound head atom.
func (e env) instantiate(a cAtom) rdf.Triple {
	return rdf.Triple{S: e.resolve(a.s), P: e.resolve(a.p), O: e.resolve(a.o)}
}

// grounded reports whether every variable of a is bound in e.
func (e env) grounded(a cAtom) bool {
	return e.resolve(a.s) != rdf.Wildcard &&
		e.resolve(a.p) != rdf.Wildcard &&
		e.resolve(a.o) != rdf.Wildcard
}
