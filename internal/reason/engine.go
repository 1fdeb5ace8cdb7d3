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
	"slices"

	"powl/internal/rdf"
	"powl/internal/rules"
)

// Engine materializes the closure of a graph under a rule set. It is the
// one contract the cluster layers hold a reasoner to (paper §V: any
// reasoner with datalog semantics fits): a cancellable full
// materialization and a cancellable incremental close. Forward, Hybrid and
// Rete implement it, and each also offers plain Materialize/MaterializeFrom
// convenience methods that run under context.Background and panic on a rule
// set Compile rejects. Every method compiles its rules and then runs; a
// caller that closes many times under one rule set compiles once and runs
// the Program through Forward.Fire.
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

// Program is a rule set compiled once for every run over it (paper §V:
// the ontology becomes instance rules once, then the engine reasons with
// them): the lowered rules, the fire loop's strata plans, the head index and
// per-rule body lengths DRed rederives through, and the widest rule's slot
// and body counts every scratch is sized from. It is immutable after
// Compile, so one Program serves any number of concurrent runs.
type Program struct {
	rules   []cRule
	plans   []stratumPlan
	ntr     int            // body-atom triggers across plans
	heads   atomIndex      // head atoms; trigger.atomIdx indexes the rule's head
	bodyLen map[string]int // rule name → body atom count

	// joins is the set of graph indexes a fire-loop run builds before its
	// first sweep (Indexes); reads is every index a join over the body
	// atoms can touch, which DRed's rederivation builds.
	joins, reads rdf.IndexSet

	maxSlot, maxBody int
}

// Indexes returns the graph indexes the fire loop builds before its first
// sweep: the ones its per-sweep dead-trigger test reads, and the two-bound
// and predicate indexes a constant-predicate atom is joined through. The
// byS and byO a variable-predicate atom reads are built by the first sweep
// that can fire such an atom.
func (p *Program) Indexes() rdf.IndexSet { return p.joins }

// JoinIndexes is the Indexes of rs compiled, or none for a rule set Compile
// rejects (the engine run reports that). A caller that builds a graph for a
// forward closure under rs builds these with it.
func JoinIndexes(rs []rules.Rule) rdf.IndexSet {
	p, err := Compile(rs)
	if err != nil {
		return 0
	}
	return p.joins
}

// reads returns the graph indexes a join through a can read, whichever of
// its variables are bound when it is joined: bySP, byPO and byP for a
// constant predicate; for a variable one also byS and byO, its open
// patterns.
func (a cAtom) reads() rdf.IndexSet {
	if a.p.isVar {
		return rdf.AllIndexes
	}
	return rdf.IndexSP | rdf.IndexPO | rdf.IndexP
}

// extent returns the graph indexes a's constants-only pattern reads: the
// extent the dead-trigger test counts. A variable's id is rdf.Wildcard.
func (a cAtom) extent() rdf.IndexSet { return rdf.IndexesFor(a.s.id, a.p.id, a.o.id) }

// Compile lowers, stratifies and indexes rs. It is the one construction-time
// check of a rule set: it fails on an unsafe rule (a head variable the body
// does not bind), on a rule exceeding maxSlots variables, and on two rules
// with one name — provenance records and DRed name a rule by its name, so a
// repeated name would attribute one rule's derivations to the other.
func Compile(rs []rules.Rule) (*Program, error) {
	crs, err := compileRules(rs)
	if err != nil {
		return nil, err
	}
	p := &Program{rules: crs, bodyLen: make(map[string]int, len(crs)), maxSlot: 1, maxBody: 1}
	var trs []trigger
	var atoms []cAtom
	for i := range crs {
		cr := &crs[i]
		if _, dup := p.bodyLen[cr.name]; dup {
			return nil, fmt.Errorf("reason: two rules are named %q", cr.name)
		}
		p.bodyLen[cr.name] = len(cr.body)
		p.maxSlot = max(p.maxSlot, cr.nslot)
		p.maxBody = max(p.maxBody, len(cr.body))
		for _, a := range cr.body {
			p.joins |= a.extent()
			if !a.p.isVar {
				p.joins |= a.reads()
			}
			p.reads |= a.reads()
		}
		for hi, h := range cr.head {
			trs = append(trs, trigger{rule: cr, atomIdx: hi})
			atoms = append(atoms, h)
		}
	}
	p.heads = newAtomIndex(trs, atoms)
	p.plans = planStrata(crs)
	for s := range p.plans {
		p.ntr += p.plans[s].idx.n
	}
	return p, nil
}

// ValidateRules is Compile's error, for callers that only check a rule set
// before handing it to an Engine.
func ValidateRules(rs []rules.Rule) error {
	_, err := Compile(rs)
	return err
}

// AppendConsumers appends to dst the indices, ascending and each once, of
// the rules with a body atom whose constants agree with t: the rules t can
// feed. It asks the fire loop's per-stratum atom indexes, which agree t's
// predicate and object, and makes the one check they leave out, the
// constant subject. It allocates nothing once dst has room.
func (p *Program) AppendConsumers(dst []int, t rdf.Triple) []int {
	n := len(dst)
	for s := range p.plans {
		for _, tr := range p.plans[s].idx.lookup(t) {
			if tr.rule.body[tr.atomIdx].subjectAgrees(t) {
				dst = append(dst, tr.rule.idx)
			}
		}
	}
	slices.Sort(dst[n:])
	return dst[:n+len(slices.Compact(dst[n:]))]
}

// must is the error handling of the engines' convenience methods, which run
// under context.Background: their only error is a rule set Compile rejects,
// and the int-only signatures have nowhere to surface it, so it panics —
// callers that accept rules from outside compile them first.
func must(n int, err error) int {
	if err != nil {
		panic(err)
	}
	return n
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
		cr.nslot = len(slots)
		for _, a := range r.Head {
			cr.head = append(cr.head, lowerAtom(a))
		}
		// A head atom that opened a slot has a variable the body never
		// binds: the rule is unsafe, and firing it would write the unbound
		// slot's 0 (rdf.Wildcard) into a derived triple.
		if len(slots) > cr.nslot {
			return nil, fmt.Errorf("reason: rule %q is unsafe (head variable not bound in body)", r.Name)
		}
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
