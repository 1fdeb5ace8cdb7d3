package reason

import (
	"testing"

	"powl/internal/rdf"
)

// BenchmarkJoinFireOn measures the steady-state per-delta join path: the
// graph is at fixpoint, so every firing runs the full bind → selectivity
// rank → index scan → emit-dedup sequence without growing anything. Triggers
// come from the product's dispatch — every stratum's atom index, the one
// joinPathAllocs uses — so the variable-predicate atoms the fire loop seeds
// with every triple are fired too. This is the path the zero-allocation
// regression test pins; allocs/op here should stay at 0.
func BenchmarkJoinFireOn(b *testing.B) {
	g, rs, deltas := allocFixture()
	Forward{}.Materialize(g, rs)
	p := mustCompile(rs)
	sc := newScratch(p)
	emit := func(tr rdf.Triple) {
		if !g.Has(tr) {
			b.Fatal("fixture not at fixpoint")
		}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d := deltas[i%len(deltas)]
		for s := range p.plans {
			for _, tr := range p.plans[s].idx.lookup(d) {
				fireOn(g, sc, tr, d, emit)
			}
		}
	}
}

// BenchmarkJoinMaterialize measures a full semi-naive materialization of the
// join fixture from scratch — clone, fixpoint rounds, pending-buffer churn —
// i.e. everything BenchmarkJoinFireOn's steady state leaves out.
func BenchmarkJoinMaterialize(b *testing.B) {
	g, rs, _ := allocFixture()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := g.Clone()
		if (Forward{}).Materialize(c, rs) == 0 {
			b.Fatal("fixture derived nothing")
		}
	}
}
