package reason

import (
	"context"

	"powl/internal/rdf"
	"powl/internal/rules"
)

// MaterializeFrom is MaterializeFromCtx without cancellation: the fire loop
// with the delta seeded by the new tuples instead of the whole graph.
// Because g was previously at fixpoint, every missing derivation joins at
// least one seed, so seeding the delta with the seeds is complete.
func (f Forward) MaterializeFrom(g *rdf.Graph, rs []rules.Rule, seeds []rdf.Triple) int {
	return must(f.MaterializeFromCtx(context.Background(), g, rs, seeds))
}

// MaterializeFromCtx implements Engine.
func (f Forward) MaterializeFromCtx(ctx context.Context, g *rdf.Graph, rs []rules.Rule, seeds []rdf.Triple) (int, error) {
	if len(seeds) == 0 {
		return 0, ctx.Err()
	}
	p, err := Compile(rs)
	if err != nil {
		return 0, err
	}
	return f.Fire(ctx, g, p, seeds)
}

// MaterializeFrom is the hybrid engine's incremental close, without
// cancellation.
//
// The delta is closed bottom-up with the forward engine's semi-naive round:
// the paper's expensive per-resource backward driver is the *full*
// materialization the experiments measure, while closing over a handful of
// received tuples is wrapper-level machinery for which any datalog
// evaluation produces the same closure (§V: "our work is applicable to any
// kind of reasoner that adheres to datalog semantics").
func (h Hybrid) MaterializeFrom(g *rdf.Graph, rs []rules.Rule, seeds []rdf.Triple) int {
	return must(h.MaterializeFromCtx(context.Background(), g, rs, seeds))
}

// MaterializeFromCtx implements Engine.
func (h Hybrid) MaterializeFromCtx(ctx context.Context, g *rdf.Graph, rs []rules.Rule, seeds []rdf.Triple) (int, error) {
	return Forward{Threads: h.Threads}.MaterializeFromCtx(ctx, g, rs, seeds)
}
