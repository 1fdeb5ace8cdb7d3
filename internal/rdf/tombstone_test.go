package rdf

import (
	"math/rand"
	"sort"
	"testing"
)

func TestDeleteBasics(t *testing.T) {
	g := NewGraph()
	g.Add(tr(1, 2, 3))
	g.Add(tr(1, 2, 4))
	g.Add(tr(5, 2, 3))

	if n := g.Delete([]Triple{tr(1, 2, 3), tr(9, 9, 9)}); n != 1 {
		t.Fatalf("Delete = %d, want 1", n)
	}
	if g.Has(tr(1, 2, 3)) {
		t.Fatal("deleted triple still Has")
	}
	if g.Len() != 3 || g.LiveLen() != 2 || g.Dead() != 1 {
		t.Fatalf("Len=%d LiveLen=%d Dead=%d, want 3/2/1", g.Len(), g.LiveLen(), g.Dead())
	}
	// Idempotent.
	if n := g.Delete([]Triple{tr(1, 2, 3)}); n != 0 {
		t.Fatalf("second Delete = %d, want 0", n)
	}
	// Every pattern shape excludes the dead triple.
	for _, pat := range [][3]ID{
		{1, 2, 3}, {1, 2, Wildcard}, {Wildcard, 2, 3}, {1, Wildcard, 3},
		{1, Wildcard, Wildcard}, {Wildcard, 2, Wildcard}, {Wildcard, Wildcard, 3},
		{Wildcard, Wildcard, Wildcard},
	} {
		for _, got := range g.Match(pat[0], pat[1], pat[2]) {
			if got == tr(1, 2, 3) {
				t.Fatalf("pattern %v matched deleted triple", pat)
			}
		}
		if c, m := g.CountMatch(pat[0], pat[1], pat[2]), len(g.Match(pat[0], pat[1], pat[2])); c < m {
			t.Fatalf("CountMatch%v = %d < Match length %d", pat, c, m)
		}
	}
	if got := len(g.Triples()); got != 2 {
		t.Fatalf("Triples() len = %d, want 2", got)
	}
}

func TestDeleteThenReAdd(t *testing.T) {
	g := NewGraph()
	g.Add(tr(1, 2, 3))
	g.Delete([]Triple{tr(1, 2, 3)})
	if !g.Add(tr(1, 2, 3)) {
		t.Fatal("re-Add after Delete reported not-new")
	}
	if !g.Has(tr(1, 2, 3)) {
		t.Fatal("re-added triple missing")
	}
	off, ok := g.Offset(tr(1, 2, 3))
	if !ok || off != 1 {
		t.Fatalf("re-added offset = %d,%v, want 1,true", off, ok)
	}
	if g.LiveLen() != 1 || g.Len() != 2 {
		t.Fatalf("LiveLen=%d Len=%d, want 1/2", g.LiveLen(), g.Len())
	}
	if got := g.Match(1, 2, Wildcard); len(got) != 1 {
		t.Fatalf("match after re-add = %v, want one triple", got)
	}
	// Deleting the old offset again must not disturb the live re-add.
	if n := g.DeleteOffsets([]uint32{0}); n != 0 {
		t.Fatalf("re-deleting dead offset = %d, want 0", n)
	}
	if !g.Has(tr(1, 2, 3)) {
		t.Fatal("live re-add lost after dead-offset delete")
	}
}

// TestSnapshotPinsPreDeleteEpoch is the acceptance-criterion test: a
// snapshot taken before a deletion keeps answering its original epoch
// exactly, while a snapshot taken after sees the deletion.
func TestSnapshotPinsPreDeleteEpoch(t *testing.T) {
	g := NewGraph()
	for i := 1; i <= 50; i++ {
		g.Add(tr(ID(i), 1, ID(i+1)))
	}
	pre := g.Snapshot()
	preTriples := append([]Triple(nil), pre.Triples()...)

	var dels []Triple
	for i := 1; i <= 50; i += 3 {
		dels = append(dels, tr(ID(i), 1, ID(i+1)))
	}
	g.Delete(dels)
	g.Add(tr(100, 1, 101))
	post := g.Snapshot()

	if pre.Len() != 50 {
		t.Fatalf("pre Len = %d, want 50", pre.Len())
	}
	for _, d := range dels {
		if !pre.Has(d) {
			t.Fatalf("pre-delete snapshot lost %v", d)
		}
		if post.Has(d) {
			t.Fatalf("post-delete snapshot still has %v", d)
		}
	}
	got := pre.Triples()
	if len(got) != len(preTriples) {
		t.Fatalf("pre Triples len changed: %d vs %d", len(got), len(preTriples))
	}
	for i := range got {
		if got[i] != preTriples[i] {
			t.Fatalf("pre Triples[%d] changed", i)
		}
	}
	// All 8 shapes on the pinned snapshot still see a deleted triple.
	d := dels[0]
	for _, pat := range [][3]ID{
		{d.S, d.P, d.O}, {d.S, d.P, Wildcard}, {Wildcard, d.P, d.O}, {d.S, Wildcard, d.O},
		{d.S, Wildcard, Wildcard}, {Wildcard, d.P, Wildcard}, {Wildcard, Wildcard, d.O},
		{Wildcard, Wildcard, Wildcard},
	} {
		found := false
		pre.ForEachMatch(pat[0], pat[1], pat[2], func(x Triple) bool {
			if x == d {
				found = true
				return false
			}
			return true
		})
		if !found {
			t.Fatalf("pre-delete snapshot pattern %v lost %v", pat, d)
		}
		post.ForEachMatch(pat[0], pat[1], pat[2], func(x Triple) bool {
			if x == d {
				t.Fatalf("post-delete snapshot pattern %v matched %v", pat, d)
			}
			return true
		})
	}
	if post.Len() != 50-len(dels)+1 {
		t.Fatalf("post Len = %d, want %d", post.Len(), 50-len(dels)+1)
	}
}

func TestDeadAndAssertedTriples(t *testing.T) {
	g := NewGraph()
	g.Add(tr(1, 2, 3))
	g.AddDerived(tr(4, 5, 6), Derivation{})
	g.Add(tr(7, 8, 9))
	if got := g.AssertedTriples(); len(got) != 2 {
		t.Fatalf("AssertedTriples = %v, want the two asserted", got)
	}
	if !g.IsDerivedOffset(1) || g.IsDerivedOffset(0) || g.IsDerivedOffset(2) {
		t.Fatal("derived bits wrong")
	}
	g.Delete([]Triple{tr(7, 8, 9), tr(4, 5, 6)})
	dead := g.DeadTriples()
	want := []Triple{tr(4, 5, 6), tr(7, 8, 9)}
	sort.Slice(want, func(i, j int) bool { return want[i].Less(want[j]) })
	if len(dead) != 2 || dead[0] != want[0] || dead[1] != want[1] {
		t.Fatalf("DeadTriples = %v, want %v", dead, want)
	}
	// Re-add one: it leaves the dead set (live again).
	g.Add(tr(7, 8, 9))
	if got := g.DeadTriples(); len(got) != 1 || got[0] != tr(4, 5, 6) {
		t.Fatalf("DeadTriples after re-add = %v", got)
	}
	if got := g.AssertedTriples(); len(got) != 2 {
		t.Fatalf("AssertedTriples after churn = %v", got)
	}
}

func TestRepairDedup(t *testing.T) {
	g := NewGraph()
	g.Add(tr(1, 2, 3))
	g.Add(tr(4, 5, 6))
	g.Delete([]Triple{tr(1, 2, 3)})
	// Simulate a writer panic between tombstone publication and table
	// pruning: clobber the table and rebuild from published state.
	clear(g.seen.slots)
	g.seen.place(tr(1, 2, 3), 0)
	g.RepairDedup()
	if g.Has(tr(1, 2, 3)) {
		t.Fatal("RepairDedup resurrected a dead triple")
	}
	if !g.Has(tr(4, 5, 6)) {
		t.Fatal("RepairDedup lost a live triple")
	}
	if off, ok := g.Offset(tr(4, 5, 6)); !ok || off != 1 {
		t.Fatalf("Offset after repair = %d,%v", off, ok)
	}
}

func TestCloneCarriesTombstones(t *testing.T) {
	g := NewGraph()
	g.Add(tr(1, 2, 3))
	g.AddDerived(tr(4, 5, 6), Derivation{})
	g.Delete([]Triple{tr(1, 2, 3)})
	c := g.Clone()
	if c.Has(tr(1, 2, 3)) || !c.Has(tr(4, 5, 6)) {
		t.Fatal("clone liveness wrong")
	}
	if c.LiveLen() != 1 || c.Dead() != 1 {
		t.Fatalf("clone LiveLen=%d Dead=%d", c.LiveLen(), c.Dead())
	}
	if !c.IsDerivedOffset(1) {
		t.Fatal("clone lost derived bit")
	}
	// Deleting in the clone must not affect the original (copy-on-write).
	c.Delete([]Triple{tr(4, 5, 6)})
	if !g.Has(tr(4, 5, 6)) {
		t.Fatal("clone delete leaked into original")
	}
}

func TestCompact(t *testing.T) {
	g := NewGraph()
	g.EnableProv()
	rule := g.Prov().RuleID("r1")
	g.Add(tr(1, 2, 3))                    // off 0
	g.Add(tr(3, 2, 5))                    // off 1
	g.AddDerived(tr(1, 2, 5), Derivation{ // off 2: derived from 0,1
		Rule: rule, Round: 1, Prem: [3]uint32{0, 1, NoPremise}})
	g.Add(tr(9, 9, 9)) // off 3: will die
	g.Delete([]Triple{tr(9, 9, 9)})

	c := g.Compact()
	if c.Len() != 3 || c.LiveLen() != 3 || c.Dead() != 0 {
		t.Fatalf("compact Len=%d LiveLen=%d Dead=%d, want 3/3/0", c.Len(), c.LiveLen(), c.Dead())
	}
	if !g.Equal(c) {
		t.Fatalf("compact not Equal: diff %v / %v", g.Diff(c), c.Diff(g))
	}
	if !c.IsDerivedOffset(2) || c.IsDerivedOffset(0) {
		t.Fatal("compact derived bits wrong")
	}
	lin, ok := c.LineageOf(tr(1, 2, 5))
	if !ok || lin.Rule != "r1" || len(lin.Prem) != 2 {
		t.Fatalf("compact lineage = %+v,%v", lin, ok)
	}
	if lin.Prem[0] != tr(1, 2, 3) || lin.Prem[1] != tr(3, 2, 5) {
		t.Fatalf("compact premises = %v", lin.Prem)
	}
	// A dead premise degrades to NoPremise rather than dangling.
	g.Delete([]Triple{tr(1, 2, 3)})
	c2 := g.Compact()
	lin2, ok := c2.LineageOf(tr(1, 2, 5))
	if !ok || len(lin2.Prem) != 1 || lin2.Prem[0] != tr(3, 2, 5) {
		t.Fatalf("compact-with-dead-premise lineage = %+v,%v", lin2, ok)
	}
	// The source graph is untouched and its pinned snapshots stay valid.
	if g.Len() != 4 {
		t.Fatalf("source Len mutated: %d", g.Len())
	}
}

// TestDeleteRandomizedVsModel drives random add/delete/re-add traffic and
// checks every pattern shape against a map reference model after each step,
// with no index built and with every index built.
func TestDeleteRandomizedVsModel(t *testing.T) {
	for _, ix := range indexings {
		t.Run(ix.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(8))
			g := NewGraph()
			g.BuildIndexes(ix.set)
			model := map[Triple]struct{}{}
			universe := func() Triple {
				return tr(ID(rng.Intn(12)+1), ID(rng.Intn(4)+1), ID(rng.Intn(12)+1))
			}
			check := func(step int) {
				if g.LiveLen() != len(model) {
					t.Fatalf("step %d: LiveLen=%d model=%d", step, g.LiveLen(), len(model))
				}
				sn := g.Snapshot()
				for i := 0; i < 6; i++ {
					x := universe()
					pats := [][3]ID{
						{x.S, x.P, x.O}, {x.S, x.P, Wildcard}, {Wildcard, x.P, x.O},
						{x.S, Wildcard, x.O}, {x.S, Wildcard, Wildcard},
						{Wildcard, x.P, Wildcard}, {Wildcard, Wildcard, x.O},
						{Wildcard, Wildcard, Wildcard},
					}
					for _, pat := range pats {
						want := map[Triple]int{}
						for m := range model {
							if (pat[0] == Wildcard || pat[0] == m.S) &&
								(pat[1] == Wildcard || pat[1] == m.P) &&
								(pat[2] == Wildcard || pat[2] == m.O) {
								want[m]++
							}
						}
						for _, got := range [][]Triple{g.Match(pat[0], pat[1], pat[2]), sn.Match(pat[0], pat[1], pat[2])} {
							if len(got) != len(want) {
								t.Fatalf("step %d pat %v: got %d matches, want %d", step, pat, len(got), len(want))
							}
							for _, m := range got {
								if want[m] == 0 {
									t.Fatalf("step %d pat %v: spurious %v", step, pat, m)
								}
							}
						}
					}
				}
			}
			for step := 0; step < 400; step++ {
				x := universe()
				if rng.Intn(3) == 0 {
					g.Delete([]Triple{x})
					delete(model, x)
				} else {
					g.Add(x)
					model[x] = struct{}{}
				}
				if step%40 == 39 {
					check(step)
				}
			}
			check(400)
		})
	}
}
