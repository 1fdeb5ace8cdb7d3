package gpart

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// ring builds a cycle of n vertices.
func ring(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(i, (i+1)%n, 1)
	}
	return b.Build()
}

// clusters builds k cliques of size m connected by single bridge edges — the
// easy case any partitioner must ace.
func clusters(k, m int) *Graph {
	b := NewBuilder(k * m)
	for c := 0; c < k; c++ {
		base := c * m
		for i := 0; i < m; i++ {
			for j := i + 1; j < m; j++ {
				b.AddEdge(base+i, base+j, 1)
			}
		}
		if c > 0 {
			b.AddEdge(base-1, base, 1) // bridge
		}
	}
	return b.Build()
}

func TestBuilderMergesParallelEdgesAndDropsSelfLoops(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1, 2)
	b.AddEdge(1, 0, 3)
	b.AddEdge(2, 2, 5)
	g := b.Build()
	if deg := g.xadj[1] - g.xadj[0]; deg != 1 || g.xadj[2]-g.xadj[1] != 1 {
		t.Fatalf("degrees = %d,%d; want 1,1", deg, g.xadj[2]-g.xadj[1])
	}
	if w := g.adjwgt[g.xadj[0]]; w != 5 {
		t.Fatalf("merged weight = %d, want 5", w)
	}
	if g.xadj[3] != g.xadj[2] {
		t.Fatal("self loop survived")
	}
}

func TestPartitionValidatesK(t *testing.T) {
	g := ring(4)
	if _, err := Partition(g, 0, Options{}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := Partition(g, 5, Options{}); err == nil {
		t.Error("k>n accepted")
	}
}

func TestPartitionK1IsTrivial(t *testing.T) {
	part, err := Partition(ring(10), 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for v, p := range part {
		if p != 0 {
			t.Fatalf("vertex %d in part %d", v, p)
		}
	}
}

// TestPartitionCoversAndBalances checks the two hard invariants on several
// graph shapes: every vertex is assigned a valid part, and parts are
// reasonably balanced.
func TestPartitionCoversAndBalances(t *testing.T) {
	shapes := map[string]*Graph{
		"ring64":      ring(64),
		"clusters4x8": clusters(4, 8),
		"random":      randomGraph(200, 600, 3),
		"star":        star(50),
	}
	for name, g := range shapes {
		for _, k := range []int{2, 4, 8} {
			part, err := Partition(g, k, Options{Seed: 1})
			if err != nil {
				t.Fatalf("%s k=%d: %v", name, k, err)
			}
			if len(part) != g.n {
				t.Fatalf("%s k=%d: part len %d", name, k, len(part))
			}
			loads := partLoads(g, part, k)
			var total int64
			for p, l := range loads {
				if l == 0 && g.n >= 4*k {
					t.Errorf("%s k=%d: part %d is empty", name, k, p)
				}
				total += l
			}
			if total != g.totalVWeight() {
				t.Fatalf("%s k=%d: loads sum %d != total %d (vertex lost or duplicated)", name, k, total, g.totalVWeight())
			}
			for _, p := range part {
				if p < 0 || p >= k {
					t.Fatalf("%s k=%d: invalid part %d", name, k, p)
				}
			}
			// Generous balance bound; the refiner targets 5%.
			if imb := imbalance(g, part, k); imb > 0.5 {
				t.Errorf("%s k=%d: imbalance %.2f too high", name, k, imb)
			}
		}
	}
}

// TestPartitionFindsClusters: on bridge-connected cliques the cut must be
// exactly the bridges.
func TestPartitionFindsClusters(t *testing.T) {
	g := clusters(4, 10)
	part, err := Partition(g, 4, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if cut := EdgeCut(g, part); cut > 6 {
		t.Errorf("cut = %d on 4 near-disconnected cliques (3 bridges); want ≤ 6", cut)
	}
	// Each clique must land (almost) entirely in one part.
	for c := 0; c < 4; c++ {
		counts := map[int]int{}
		for v := c * 10; v < (c+1)*10; v++ {
			counts[part[v]]++
		}
		maxIn := 0
		for _, n := range counts {
			if n > maxIn {
				maxIn = n
			}
		}
		if maxIn < 9 {
			t.Errorf("clique %d split across parts: %v", c, counts)
		}
	}
}

func TestPartitionRespectsVertexWeights(t *testing.T) {
	// Two heavy vertices and many light ones: the heavy pair must not land
	// in the same part when k=2 and they dominate the weight.
	b := NewBuilder(10)
	b.SetVWeight(0, 100)
	b.SetVWeight(1, 100)
	for i := 2; i < 10; i++ {
		b.AddEdge(0, i, 1)
		b.AddEdge(1, i, 1)
	}
	b.AddEdge(0, 1, 1)
	g := b.Build()
	part, err := Partition(g, 2, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if part[0] == part[1] {
		t.Errorf("both heavy vertices in part %d; imbalance %.2f", part[0], imbalance(g, part, 2))
	}
}

func TestEdgeCutAndLoads(t *testing.T) {
	g := ring(4)
	part := []int{0, 0, 1, 1}
	if cut := EdgeCut(g, part); cut != 2 {
		t.Fatalf("EdgeCut = %d, want 2", cut)
	}
	loads := partLoads(g, part, 2)
	if loads[0] != 2 || loads[1] != 2 {
		t.Fatalf("Loads = %v", loads)
	}
	if imb := imbalance(g, part, 2); imb != 0 {
		t.Fatalf("Imbalance = %f, want 0", imb)
	}
}

func TestPartitionDeterministicForSeed(t *testing.T) {
	g := randomGraph(150, 400, 7)
	a, err := Partition(g, 4, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Partition(g, 4, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different partitions")
		}
	}
}

// TestPartitionProperty: for random graphs, the partition always covers all
// vertices with valid parts and never loses weight.
func TestPartitionProperty(t *testing.T) {
	f := func(seed int64, nRaw, kRaw uint8) bool {
		n := 10 + int(nRaw)%120
		k := 2 + int(kRaw)%6
		g := randomGraph(n, 3*n, seed)
		part, err := Partition(g, k, Options{Seed: seed})
		if err != nil {
			return false
		}
		var total int64
		loads := partLoads(g, part, k)
		for _, l := range loads {
			total += l
		}
		return total == g.totalVWeight()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func randomGraph(n, m int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	for i := 0; i < m; i++ {
		b.AddEdge(rng.Intn(n), rng.Intn(n), int64(1+rng.Intn(4)))
	}
	return b.Build()
}

func star(n int) *Graph {
	b := NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(0, i, 1)
	}
	return b.Build()
}
