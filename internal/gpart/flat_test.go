package gpart

import (
	"math/rand"
	"sort"
	"testing"
)

// imbalance returns maxLoad·k/totalWeight − 1 (0 means perfectly balanced).
func imbalance(g *Graph, part []int, k int) float64 {
	var max, total int64
	for _, l := range partLoads(g, part, k) {
		total += l
		if l > max {
			max = l
		}
	}
	if total == 0 {
		return 0
	}
	return float64(max)*float64(k)/float64(total) - 1
}

// unitRandomGraph is a seeded random graph whose edges all weigh 1 (apart
// from the few parallel ones that merge), so matching, growing and refining
// meet equal-weight and equal-gain choices at every step.
func unitRandomGraph(n, m int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	for i := 0; i < m; i++ {
		b.AddEdge(rng.Intn(n), rng.Intn(n), 1)
	}
	return b.Build()
}

// TestBuilderMatchesMapReference: random edge lists with duplicates,
// reversed duplicates and self-loops build the CSR a straightforward
// map-of-maps construction gives — symmetric, parallel edges merged, rows
// sorted, loops dropped.
func TestBuilderMatchesMapReference(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(60)
		b := NewBuilder(n)
		ref := make([]map[int32]int64, n)
		for i := range ref {
			ref[i] = map[int32]int64{}
		}
		for i, m := 0, rng.Intn(6*n); i < m; i++ {
			u, v, w := rng.Intn(n), rng.Intn(n), int64(1+rng.Intn(5))
			if rng.Intn(4) == 0 {
				v = u // self-loop
			}
			for rep := rng.Intn(3); rep >= 0; rep-- { // duplicates, some reversed
				b.AddEdge(u, v, w)
				if u != v {
					ref[u][int32(v)] += w
					ref[v][int32(u)] += w
				}
				u, v = v, u
			}
		}
		for v := 0; v < n; v++ {
			b.SetVWeight(v, int64(v+1))
		}
		g := b.Build()
		if g.n != n || len(g.xadj) != n+1 || int(g.xadj[n]) != len(g.adjncy) || len(g.adjncy) != len(g.adjwgt) {
			t.Fatalf("seed %d: malformed CSR: n=%d xadj=%d adjncy=%d adjwgt=%d", seed, g.n, len(g.xadj), len(g.adjncy), len(g.adjwgt))
		}
		for v := 0; v < n; v++ {
			if g.vweight[v] != int64(v+1) {
				t.Fatalf("seed %d: vertex %d weighs %d", seed, v, g.vweight[v])
			}
			want := make([]int32, 0, len(ref[v]))
			for u := range ref[v] {
				want = append(want, u)
			}
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			row := g.adjncy[g.xadj[v]:g.xadj[v+1]]
			if len(row) != len(want) {
				t.Fatalf("seed %d: vertex %d has neighbors %v, want %v", seed, v, row, want)
			}
			for i, u := range want {
				if row[i] != u || g.adjwgt[int(g.xadj[v])+i] != ref[v][u] {
					t.Fatalf("seed %d: vertex %d edge %d is (%d, w=%d), want (%d, w=%d)",
						seed, v, i, row[i], g.adjwgt[int(g.xadj[v])+i], u, ref[v][u])
				}
			}
		}
	}
}

// TestCoarsenKeepsRowsSortedAndSymmetric: a contracted graph obeys the same
// CSR invariants a built one does, and conserves edge weight up to the
// edges contracted away.
func TestCoarsenKeepsRowsSortedAndSymmetric(t *testing.T) {
	g := randomGraph(500, 2000, 5)
	res, ok := coarsen(g, rand.New(rand.NewSource(2)))
	if !ok {
		t.Fatal("matching stalled on a random graph")
	}
	cg := res.g
	weight := map[[2]int32]int64{}
	for v := 0; v < cg.n; v++ {
		for i := cg.xadj[v]; i < cg.xadj[v+1]; i++ {
			u := cg.adjncy[i]
			if int(u) == v {
				t.Fatalf("coarse vertex %d has a self-loop", v)
			}
			if i > cg.xadj[v] && cg.adjncy[i-1] >= u {
				t.Fatalf("row %d is not strictly ascending at %d", v, i)
			}
			weight[[2]int32{int32(v), u}] = cg.adjwgt[i]
		}
	}
	var fineCross, coarseTotal int64
	for e, w := range weight {
		if weight[[2]int32{e[1], e[0]}] != w {
			t.Fatalf("edge %v weighs %d one way and %d the other", e, w, weight[[2]int32{e[1], e[0]}])
		}
		coarseTotal += w
	}
	for v := 0; v < g.n; v++ {
		for i := g.xadj[v]; i < g.xadj[v+1]; i++ {
			if res.fineToCoarse[v] != res.fineToCoarse[g.adjncy[i]] {
				fineCross += g.adjwgt[i]
			}
		}
	}
	if coarseTotal != fineCross {
		t.Fatalf("coarse edge weight %d, fine weight between distinct coarse vertices %d", coarseTotal, fineCross)
	}
}

// TestPartitionRepeatsExactly: Partition is a function of (graph, k, Seed)
// at every k. With unit weights the refiner meets equal-gain targets
// constantly; a tie broken in map order shows within a few repeats for
// k ≥ 3.
func TestPartitionRepeatsExactly(t *testing.T) {
	g := unitRandomGraph(6000, 18000, 3)
	for _, k := range []int{2, 3, 4, 8} {
		first, err := Partition(g, k, Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for rep := 1; rep < 20; rep++ {
			again, err := Partition(g, k, Options{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			for v := range first {
				if again[v] != first[v] {
					t.Fatalf("k=%d repeat %d: vertex %d in part %d, first run said %d", k, rep, v, again[v], first[v])
				}
			}
		}
	}
}

// TestPartitionAllocs pins the partitioner's allocation count at a scale
// where a per-vertex or per-edge allocation would show as tens of
// thousands: a few flat arrays per level and nothing else.
func TestPartitionAllocs(t *testing.T) {
	g := unitRandomGraph(30000, 120000, 4)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Partition(g, 2, Options{Seed: 1}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 300 {
		t.Errorf("Partition over %d vertices: %.0f allocations, want ≤ 300", g.n, allocs)
	}
}

// TestRebalanceFillsStarvedPart: starting from everything in part 0,
// rebalance brings every part up to (1−ε)·average, moving the vertices that
// cost the cut least.
func TestRebalanceFillsStarvedPart(t *testing.T) {
	g := randomGraph(2000, 6000, 8)
	for _, k := range []int{2, 4} {
		part := make([]int, g.n)
		opts := Options{}.withDefaults()
		rebalance(g, part, k, opts)
		low := int64(float64(g.totalVWeight()) / float64(k) * (1 - opts.Imbalance))
		for p, l := range partLoads(g, part, k) {
			if l < low {
				t.Errorf("k=%d: part %d still starved: load %d, floor %d", k, p, l, low)
			}
		}
	}
}
