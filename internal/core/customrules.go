package core

import (
	"fmt"

	"powl/internal/datagen"
	"powl/internal/rules"
)

// MaterializeRules runs the parallel reasoner with a caller-supplied rule
// set instead of the OWL-Horst compilation pipeline — the "any reasoner
// that adheres to datalog semantics" generality the paper claims (§V).
// Every triple of the dataset is treated as instance data (there is no
// schema to split off), and nothing is replicated up front.
//
// Correctness of the data-partitioning strategy rests on the single-join
// property (§II): for rules whose body atoms all share one variable the
// ownership placement guarantees co-location of joinable tuples. Rule sets
// violating it are rejected unless cfg allows them via RulePartitioning
// (whose correctness argument does not need the property) or the rule's
// body atoms all share a common variable (the intersectionOf-style n-ary
// case, which ownership still covers).
func MaterializeRules(ds *datagen.Dataset, rs []rules.Rule, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	for _, r := range rs {
		if !r.IsSafe() {
			return nil, fmt.Errorf("core: rule %q is unsafe (head variable not bound in body)", r.Name)
		}
	}
	if cfg.Strategy == DataPartitioning || cfg.Strategy == HybridPartitioning {
		for _, r := range rs {
			if len(r.Body) >= 2 && !sharesOwnedVariable(r) {
				return nil, fmt.Errorf(
					"core: rule %q has no variable shared across all body atoms in subject/object position; data partitioning cannot guarantee completeness for it (use Strategy: RulePartitioning)", r.Name)
			}
		}
	}

	p, err := plan(ds, workload{instance: ds.Graph.Triples(), rules: rs}, cfg)
	if err != nil {
		return nil, err
	}
	return run(ds, p, cfg)
}

// sharesOwnedVariable reports whether some variable occurs in the subject
// or object position of *every* body atom of r. This is the n-ary
// generalization of the single-join property under which resource ownership
// co-locates all joinable tuples: triples are placed on the owners of their
// subject and object, so only a join variable in those positions guarantees
// that every participating tuple is present on the shared resource's owner.
// (A variable shared through a predicate position — as in the rdfs7 meta
// rule — does not qualify: tuples are not placed on their predicate's
// owner. The compiled OWL-Horst instance rules never join on predicates,
// which is why the paper's data partitioning is complete for them.)
func sharesOwnedVariable(r rules.Rule) bool {
	if len(r.Body) == 0 {
		return true
	}
	ownedVars := func(a rules.Atom) map[string]bool {
		out := map[string]bool{}
		if a.S.IsVar {
			out[a.S.Var] = true
		}
		if a.O.IsVar {
			out[a.O.Var] = true
		}
		return out
	}
	candidates := ownedVars(r.Body[0])
	for _, a := range r.Body[1:] {
		here := ownedVars(a)
		for v := range candidates {
			if !here[v] {
				delete(candidates, v)
			}
		}
		if len(candidates) == 0 {
			return false
		}
	}
	return true
}

// SerialRules closes the dataset under rs on one processor — the baseline
// for MaterializeRules.
func SerialRules(ds *datagen.Dataset, rs []rules.Rule, kind EngineKind) (*SerialResult, error) {
	return serial(ds.Graph.Clone(), rs, kind)
}
