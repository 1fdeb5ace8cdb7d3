package core

import (
	"context"
	"fmt"
	"time"

	"powl/internal/cluster"
	"powl/internal/datagen"
	"powl/internal/gpart"
	"powl/internal/partition"
	"powl/internal/reason"
	"powl/internal/rulepart"
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

	engine, err := engineFor(cfg.Engine, cfg.Threads)
	if err != nil {
		return nil, err
	}
	if err := reason.ValidateRules(rs); err != nil {
		return nil, err
	}
	instance := ds.Graph.Triples()

	var (
		assigns []cluster.Assignment
		router  cluster.Router
		res     = &Result{}
	)
	switch cfg.Strategy {
	case DataPartitioning:
		pol, err := policyFor(cfg, ds)
		if err != nil {
			return nil, err
		}
		in := &partition.Input{Dict: ds.Dict, Instance: instance}
		pres, err := partition.Partition(in, cfg.Workers, pol)
		if err != nil {
			return nil, err
		}
		res.PartitionTime = pres.Elapsed
		m := partition.ComputeMetrics(in, pres)
		res.Metrics = &m
		assigns = make([]cluster.Assignment, cfg.Workers)
		for i := range assigns {
			assigns[i] = cluster.Assignment{Base: pres.Parts[i], Rules: rs}
		}
		router = newOwnerRouter(pres.Owner, cfg.Workers)

	case RulePartitioning:
		rres, err := rulepart.Partition(rs, cfg.Workers, rulepart.Options{
			Gpart: gpart.Options{Seed: cfg.Seed},
		})
		if err != nil {
			return nil, err
		}
		res.PartitionTime = rres.Elapsed
		res.RuleCut = rres.CutWeight
		assigns = make([]cluster.Assignment, cfg.Workers)
		for i := range assigns {
			assigns[i] = cluster.Assignment{Base: instance, Rules: subset(rs, rres.Groups[i])}
		}
		router = rulepart.NewRouter(rs, rres)

	default:
		return nil, fmt.Errorf("core: strategy %q is not supported with custom rules", cfg.Strategy)
	}

	tr, cleanup, err := transportFor(cfg, ds.Dict)
	if err != nil {
		return nil, err
	}
	defer cleanup()

	mode := cluster.Concurrent
	if cfg.Simulate {
		mode = cluster.Simulated
	}
	cres, err := cluster.Run(cluster.Config{
		Engine:     engine,
		Transport:  tr,
		Router:     router,
		Mode:       mode,
		MaxRounds:  cfg.MaxRounds,
		Provenance: cfg.Provenance,
	}, assigns)
	if err != nil {
		return nil, err
	}
	res.Graph = cres.Graph
	res.RoundStats = cres.RoundStats
	res.Rounds = cres.Rounds
	res.Elapsed = cres.Elapsed
	res.PerWorker = cres.PerWorker
	res.Inferred = cres.Graph.Len() - ds.Graph.Len()
	res.OR = partition.OutputReplication(cres.OutputSizes, cres.Graph.Len())
	return res, nil
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
//
//powl:ignore wallclock serial baseline Elapsed is a wall-clock measurement, mirroring MaterializeSerial.
func SerialRules(ds *datagen.Dataset, rs []rules.Rule, kind EngineKind) (*SerialResult, error) {
	engine, err := engineFor(kind, 0)
	if err != nil {
		return nil, err
	}
	g := ds.Graph.Clone()
	start := time.Now()
	n, err := engine.MaterializeCtx(context.Background(), g, rs)
	if err != nil {
		return nil, err
	}
	return &SerialResult{Graph: g, Inferred: n, Elapsed: time.Since(start)}, nil
}
