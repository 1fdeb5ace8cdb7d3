package reason

import (
	"context"

	"powl/internal/rdf"
	"powl/internal/rules"
)

// mustCompile is Compile for test fixtures, whose rule sets always compile.
func mustCompile(rs []rules.Rule) *Program {
	p, err := Compile(rs)
	if err != nil {
		panic(err)
	}
	return p
}

// MaterializeReferenceDispatch closes g under rs on one shard, with the
// fire loop dispatching and routing through the predicate-only reference
// index (refDispatch) and pruning nothing: the run the atom index and
// markDead must reproduce but for skipped empty sweeps.
func MaterializeReferenceDispatch(ctx context.Context, g *rdf.Graph, rs []rules.Rule) (int, error) {
	p := mustCompile(rs)
	ref := *p
	ref.plans = make([]stratumPlan, len(p.plans))
	for s, plan := range p.plans {
		ref.plans[s] = refPlan(plan)
	}
	return Forward{}.Fire(ctx, g, &ref, g.TriplesSince(0))
}
