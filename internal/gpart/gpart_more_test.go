package gpart

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestRebalanceLowerBound: after Partition, no part may be starved far below
// the average on graphs with enough granularity.
func TestRebalanceLowerBound(t *testing.T) {
	g := randomGraph(400, 1200, 9)
	for _, k := range []int{4, 8} {
		part, err := Partition(g, k, Options{Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		loads := partLoads(g, part, k)
		avg := float64(g.totalVWeight()) / float64(k)
		for p, l := range loads {
			if float64(l) < 0.5*avg {
				t.Errorf("k=%d: part %d starved: load %d vs avg %.0f", k, p, l, avg)
			}
		}
	}
}

// TestCoarsenPreservesWeight: the coarsening step must conserve total vertex
// weight and total edge weight (within merged parallel edges).
func TestCoarsenPreservesWeight(t *testing.T) {
	g := randomGraph(300, 900, 11)
	rng := rand.New(rand.NewSource(1))
	res, ok := coarsen(g, rng)
	if !ok {
		t.Skip("matching stalled on this instance")
	}
	if res.g.totalVWeight() != g.totalVWeight() {
		t.Fatalf("coarsening changed total vertex weight: %d -> %d",
			g.totalVWeight(), res.g.totalVWeight())
	}
	if res.g.n >= g.n {
		t.Fatalf("coarsening did not shrink: %d -> %d", g.n, res.g.n)
	}
	// Every fine vertex maps to a valid coarse vertex.
	for v := 0; v < g.n; v++ {
		cv := res.fineToCoarse[v]
		if cv < 0 || int(cv) >= res.g.n {
			t.Fatalf("vertex %d maps to invalid coarse vertex %d", v, cv)
		}
	}
}

// TestRefineNeverIncreasesCut: a refinement pass on a random partition must
// not make the cut worse.
func TestRefineNeverIncreasesCut(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(120, 360, seed)
		rng := rand.New(rand.NewSource(seed))
		k := 4
		part := make([]int, g.n)
		for i := range part {
			part[i] = rng.Intn(k)
		}
		before := EdgeCut(g, part)
		refine(g, part, k, Options{}.withDefaults())
		after := EdgeCut(g, part)
		return after <= before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionWeightedBalance: heavily weighted vertices spread out.
func TestPartitionWeightedBalance(t *testing.T) {
	b := NewBuilder(64)
	for i := 0; i < 64; i++ {
		b.AddEdge(i, (i+1)%64, 1)
	}
	// Four heavyweight vertices spaced around the ring.
	for _, v := range []int{0, 16, 32, 48} {
		b.SetVWeight(v, 50)
	}
	g := b.Build()
	part, err := Partition(g, 4, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for _, v := range []int{0, 16, 32, 48} {
		counts[part[v]]++
	}
	for p, n := range counts {
		if n > 1 {
			t.Errorf("part %d holds %d heavy vertices; balanced placement requires 1 each", p, n)
		}
	}
}

// TestImbalanceMetric sanity.
func TestImbalanceMetric(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1, 1)
	b.AddEdge(2, 3, 1)
	g := b.Build()
	if imb := imbalance(g, []int{0, 0, 0, 1}, 2); imb < 0.49 || imb > 0.51 {
		t.Fatalf("Imbalance = %f, want 0.5 (3 vs 1)", imb)
	}
	if imbalance(g, []int{0, 0, 1, 1}, 2) != 0 {
		t.Fatal("balanced partition must have imbalance 0")
	}
}
