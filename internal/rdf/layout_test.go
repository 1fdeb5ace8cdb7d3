package rdf

import (
	"math/rand"
	"sort"
	"testing"
)

// checkLive verifies g against a live-triple model that may have seen
// deletions: live count, membership, and exact match extents for all eight
// pattern shapes of a few probes.
func checkLive(t *testing.T, name string, g *Graph, m graphModel, rng *rand.Rand) {
	t.Helper()
	if g.LiveLen() != len(m) {
		t.Fatalf("%s: LiveLen = %d, model has %d", name, g.LiveLen(), len(m))
	}
	for tr := range m {
		if !g.Has(tr) {
			t.Fatalf("%s: Has(%v) = false for a model triple", name, tr)
		}
	}
	for i := 0; i < 8; i++ {
		probe := randTriple(rng)
		if _, in := m[probe]; g.Has(probe) != in {
			t.Fatalf("%s: Has(%v) = %v, model says %v", name, probe, !in, in)
		}
		for _, pat := range patternShapes(probe) {
			got := g.Match(pat[0], pat[1], pat[2])
			sort.Slice(got, func(i, j int) bool { return got[i].Less(got[j]) })
			var want []Triple
			for _, tr := range m.sorted() {
				if (pat[0] == Wildcard || tr.S == pat[0]) && (pat[1] == Wildcard || tr.P == pat[1]) && (pat[2] == Wildcard || tr.O == pat[2]) {
					want = append(want, tr)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("%s: Match(%v) = %d rows, want %d", name, pat, len(got), len(want))
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("%s: Match(%v)[%d] = %v, want %v", name, pat, j, got[j], want[j])
				}
			}
		}
	}
}

func (m graphModel) clone() graphModel {
	c := graphModel{}
	for tr := range m {
		c.add(tr)
	}
	return c
}

// TestCloneCompactIndependentOfSource: after random add/delete traffic, a
// Clone and a Compact each equal a graph rebuilt by re-inserting the live
// triples one by one, and from then on source, clone and compacted copy
// evolve separately — appends and deletes on any one leave the other two
// exactly where they were.
func TestCloneCompactIndependentOfSource(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, m := NewGraph(), graphModel{}
		churn := func(g *Graph, m graphModel, steps int) {
			for i := 0; i < steps; i++ {
				tr := randTriple(rng)
				if rng.Intn(4) == 0 {
					g.Delete([]Triple{tr})
					delete(m, tr)
				} else {
					g.Add(tr)
					m.add(tr)
				}
			}
		}
		churn(g, m, 600)

		ref := NewGraph()
		for i, tr := range g.TriplesSince(0) {
			if g.IsLiveOffset(uint32(i)) {
				ref.Add(tr)
			}
		}
		c, k := g.Clone(), g.Compact()
		if c.Len() != g.Len() || c.Dead() != g.Dead() {
			t.Fatalf("seed %d: clone Len/Dead = %d/%d, source %d/%d", seed, c.Len(), c.Dead(), g.Len(), g.Dead())
		}
		if k.Len() != len(m) || k.Dead() != 0 {
			t.Fatalf("seed %d: compact Len/Dead = %d/%d, want %d/0", seed, k.Len(), k.Dead(), len(m))
		}
		for i, tr := range k.TriplesSince(0) {
			if ref.TriplesSince(0)[i] != tr {
				t.Fatalf("seed %d: compact log[%d] = %v, re-insertion gives %v", seed, i, tr, ref.TriplesSince(0)[i])
			}
		}
		if !c.Equal(ref) || !k.Equal(ref) {
			t.Fatalf("seed %d: clone or compact differs from per-triple re-insertion", seed)
		}

		mc, mk := m.clone(), m.clone()
		churn(c, mc, 400)
		churn(k, mk, 400)
		churn(g, m, 400)
		checkLive(t, "source", g, m, rng)
		checkLive(t, "clone", c, mc, rng)
		checkLive(t, "compact", k, mk, rng)
	}
}

// TestDedupDeleteReAddRepair churns a small universe through delete and
// re-add so the offset table keeps closing probe runs behind removed
// entries, checks membership and offsets against a model throughout, and
// checks that RepairDedup rebuilds exactly the table the churn left.
func TestDedupDeleteReAddRepair(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := NewGraph()
	model := map[Triple]uint32{}
	table := func() []uint32 {
		var offs []uint32
		for _, v := range g.seen.slots {
			if v != 0 {
				offs = append(offs, v-1)
			}
		}
		sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })
		return offs
	}
	for step := 1; step <= 6000; step++ {
		tr := randTriple(rng)
		if _, in := model[tr]; in && rng.Intn(2) == 0 {
			if g.Delete([]Triple{tr}) != 1 {
				t.Fatalf("step %d: Delete(%v) of a live triple deleted nothing", step, tr)
			}
			delete(model, tr)
		} else if !in {
			if !g.Add(tr) {
				t.Fatalf("step %d: Add(%v) of an absent triple reported present", step, tr)
			}
			model[tr] = uint32(g.Len() - 1)
		}
		probe := randTriple(rng)
		off, ok := g.Offset(probe)
		if want, in := model[probe]; ok != in || (ok && off != want) {
			t.Fatalf("step %d: Offset(%v) = %d,%v, model %d,%v", step, probe, off, ok, want, in)
		}
		if step%500 == 0 {
			before := table()
			if len(before) != len(model) || g.seen.count != len(model) {
				t.Fatalf("step %d: table holds %d offsets (count %d), model %d", step, len(before), g.seen.count, len(model))
			}
			g.RepairDedup()
			after := table()
			for i := range before {
				if before[i] != after[i] {
					t.Fatalf("step %d: RepairDedup changed the live offset set", step)
				}
			}
			for tr, want := range model {
				if off, ok := g.Offset(tr); !ok || off != want {
					t.Fatalf("step %d: after repair Offset(%v) = %d,%v, want %d", step, tr, off, ok, want)
				}
			}
		}
	}
}

// TestBulkPathAllocs pins the write side's allocation budget: nothing per
// triple or per key, only the log, the tables and the arena chunks.
func TestBulkPathAllocs(t *testing.T) {
	g, ts := benchGraph(50000)
	add := testing.AllocsPerRun(3, func() {
		fresh := NewGraphCap(len(ts))
		fresh.BuildIndexes(AllIndexes)
		for _, tr := range ts {
			fresh.Add(tr)
		}
	})
	if perTriple := add / float64(len(ts)); perTriple > 0.05 {
		t.Errorf("Add allocates %.0f times for %d triples (%.3f/triple), want <= 0.05/triple", add, len(ts), perTriple)
	}
	addAll := testing.AllocsPerRun(3, func() {
		fresh := NewGraph()
		fresh.BuildIndexes(AllIndexes)
		fresh.AddAll(ts)
	})
	if perTriple := addAll / float64(len(ts)); perTriple > 0.05 {
		t.Errorf("AddAll allocates %.0f times for %d triples (%.3f/triple), want <= 0.05/triple", addAll, len(ts), perTriple)
	}
	if clone := testing.AllocsPerRun(3, func() { g.Clone() }); clone > 500 {
		t.Errorf("Clone of %d triples allocates %.0f times, want <= 500", g.Len(), clone)
	}
}
