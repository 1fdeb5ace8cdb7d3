package reason

import (
	"context"

	"powl/internal/rdf"
	"powl/internal/rules"
)

// MaterializeReferenceDispatch closes g under rs on one shard, with the
// fire loop dispatching and routing through the predicate-only reference
// index (refDispatch) and pruning nothing: the run the atom index and
// markDead must reproduce but for skipped empty sweeps.
func MaterializeReferenceDispatch(ctx context.Context, g *rdf.Graph, rs []rules.Rule) (int, error) {
	crs := mustCompileRules(rs)
	plans := planStrata(crs)
	for s := range plans {
		plans[s] = refPlan(plans[s])
	}
	return Forward{}.fire(ctx, g, crs, plans, g.TriplesSince(0))
}

// CompileAndPlan is the set-up every Forward call pays before it fires:
// compileRules and planStrata. It returns the number of strata.
func CompileAndPlan(rs []rules.Rule) int {
	return len(planStrata(mustCompileRules(rs)))
}
