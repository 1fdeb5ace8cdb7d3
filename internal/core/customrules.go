package core

import (
	"powl/internal/datagen"
	"powl/internal/rdf"
	"powl/internal/rules"
)

// MaterializeRules runs the parallel reasoner with a caller-supplied rule
// set instead of the OWL-Horst compilation pipeline — the "any reasoner
// that adheres to datalog semantics" generality the paper claims (§V).
// Every triple of the dataset is treated as instance data (there is no
// schema to split off), and nothing is replicated up front. The plan
// rejects what NewPlan rejects: an unsafe rule, and, at more than one worker
// under the data and hybrid strategies, a rule that is not single-join
// (rules.Rule.IsSingleJoin).
func MaterializeRules(ds *datagen.Dataset, rs []rules.Rule, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	p, err := plan(ds, workload{instance: ds.Graph.Triples(), rules: rs,
		start: func() *rdf.Graph {
			g := ds.Graph.Clone()
			g.ForgetDerivations()
			return g
		}}, cfg)
	if err != nil {
		return nil, err
	}
	return run(ds, p, cfg)
}
