package rdf

import (
	"math/rand"
	"slices"
	"testing"
)

// TestStageShardResetReuse drives one shard through fill/Reset cycles whose
// sizes rise past, fall below and rise past its table's size again, each
// checked against a map: Add reports exactly the first staging of a
// triple, Triples keeps staging order, and Reset forgets everything. Once
// the shard has seen its high-water mark, a smaller cycle allocates
// nothing.
func TestStageShardResetReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sh := NewDeltaStage(2).Shard(1)
	for _, n := range []int{10, 5000, 3, 20000, 0, 700} {
		seen := map[Triple]bool{}
		var order []Triple
		for i := 0; i < 2*n; i++ {
			tr := tr(ID(1+rng.Intn(n+1)), ID(1+rng.Intn(3)), ID(1+rng.Intn(n+1)))
			if got := sh.Add(tr); got == seen[tr] {
				t.Fatalf("n=%d: Add(%v) = %v after %d stagings", n, tr, got, len(order))
			}
			if !seen[tr] {
				seen[tr] = true
				order = append(order, tr)
			}
		}
		if sh.Len() != len(order) || !slices.Equal(sh.Triples(), order) {
			t.Fatalf("n=%d: shard holds %d triples, want %d in staging order", n, sh.Len(), len(order))
		}
		sh.Reset()
		if sh.Len() != 0 || len(sh.Triples()) != 0 {
			t.Fatalf("n=%d: Reset left %d triples", n, sh.Len())
		}
	}
	cycle := func() {
		for i := 0; i < 5000; i++ {
			sh.Add(tr(ID(1+i%4000), 1, ID(i)))
		}
		sh.Reset()
	}
	if avg := testing.AllocsPerRun(10, cycle); avg != 0 {
		t.Fatalf("a cycle below the high-water mark allocates %.1f times", avg)
	}
}
