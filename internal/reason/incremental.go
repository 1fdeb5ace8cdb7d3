package reason

import (
	"context"
	"sort"

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
// By default the delta is closed bottom-up with the forward engine's
// semi-naive round: the paper's expensive per-resource backward driver is
// the *full* materialization the experiments measure, while closing over a
// handful of received tuples is wrapper-level machinery for which any
// datalog evaluation produces the same closure (§V: "our work is applicable
// to any kind of reasoner that adheres to datalog semantics").
//
// With FrontierDelta set, the delta instead re-uses the backward engine:
// every missing closure triple joins (transitively) through the seeds, and
// with single-join rules the subject of a derived triple is always a term
// of one of the two joined tuples, so per-resource queries over an
// expanding frontier — the seed tuples' resources plus their graph
// neighbours, then the resources (and neighbours) of each new triple —
// reach every affected subject. BenchmarkAblation_Delta compares the two.
func (h Hybrid) MaterializeFrom(g *rdf.Graph, rs []rules.Rule, seeds []rdf.Triple) int {
	return must(h.MaterializeFromCtx(context.Background(), g, rs, seeds))
}

// MaterializeFromCtx implements Engine; the frontier loop checks ctx per
// batch.
func (h Hybrid) MaterializeFromCtx(ctx context.Context, g *rdf.Graph, rs []rules.Rule, seeds []rdf.Triple) (int, error) {
	if len(seeds) == 0 {
		return 0, ctx.Err()
	}
	if !h.FrontierDelta {
		return Forward{Threads: h.Threads}.MaterializeFromCtx(ctx, g, rs, seeds)
	}
	p, err := Compile(rs)
	if err != nil {
		return 0, err
	}
	prof := newRuleProf(ctx, p.rules)
	defer prof.flush()
	queried := map[rdf.ID]struct{}{}
	frontier := map[rdf.ID]struct{}{}
	addWithNeighbors := func(id rdf.ID) {
		if _, done := queried[id]; !done {
			frontier[id] = struct{}{}
		}
		g.ForEachMatch(id, rdf.Wildcard, rdf.Wildcard, func(t rdf.Triple) bool {
			if _, done := queried[t.O]; !done {
				frontier[t.O] = struct{}{}
			}
			return true
		})
		g.ForEachMatch(rdf.Wildcard, rdf.Wildcard, id, func(t rdf.Triple) bool {
			if _, done := queried[t.S]; !done {
				frontier[t.S] = struct{}{}
			}
			return true
		})
	}
	for _, t := range seeds {
		addWithNeighbors(t.S)
		addWithNeighbors(t.O)
	}

	// One table for the whole delta pass: the per-query table reset that
	// models Jena's worst case applies to the full materialization driver;
	// the incremental close is powl's own wrapper-level machinery, so it
	// uses tabling efficiently.
	added := 0
	s := newSolver(g, p, prof, newDerivRecorder(g, p.rules))
	var pending []rdf.Triple
	for len(frontier) > 0 {
		if err := ctx.Err(); err != nil {
			return added, err
		}
		batch := make([]rdf.ID, 0, len(frontier))
		for id := range frontier {
			batch = append(batch, id)
		}
		sort.Slice(batch, func(i, j int) bool { return batch[i] < batch[j] })
		frontier = map[rdf.ID]struct{}{}

		pending = pending[:0]
		for _, r := range batch {
			if _, done := queried[r]; done {
				continue
			}
			queried[r] = struct{}{}
			e := s.solve(rdf.Triple{S: r, P: rdf.Wildcard, O: rdf.Wildcard})
			for t := range e.answers {
				if !g.Has(t) {
					pending = append(pending, t)
				}
			}
		}
		for _, t := range pending {
			if s.addDerived(t) {
				added++
				addWithNeighbors(t.S)
				addWithNeighbors(t.O)
			}
		}
	}
	return added, nil
}
