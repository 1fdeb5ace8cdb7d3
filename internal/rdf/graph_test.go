package rdf

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func tr(s, p, o ID) Triple { return Triple{S: s, P: p, O: o} }

func TestGraphAddAndHas(t *testing.T) {
	g := NewGraph()
	if !g.Add(tr(1, 2, 3)) {
		t.Fatal("first Add returned false")
	}
	if g.Add(tr(1, 2, 3)) {
		t.Fatal("duplicate Add returned true")
	}
	if !g.Has(tr(1, 2, 3)) || g.Has(tr(3, 2, 1)) {
		t.Fatal("Has is wrong")
	}
	if g.Len() != 1 {
		t.Fatalf("Len = %d, want 1", g.Len())
	}
}

func TestGraphAddAllCountsNew(t *testing.T) {
	g := NewGraph()
	n := g.AddAll([]Triple{tr(1, 2, 3), tr(1, 2, 3), tr(4, 5, 6)})
	if n != 2 {
		t.Fatalf("AddAll = %d, want 2", n)
	}
}

// TestGraphMatchAllPatterns checks every wildcard combination against a
// brute-force scan.
func TestGraphMatchAllPatterns(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := NewGraph()
	var all []Triple
	for i := 0; i < 300; i++ {
		x := tr(ID(1+rng.Intn(10)), ID(1+rng.Intn(5)), ID(1+rng.Intn(10)))
		if g.Add(x) {
			all = append(all, x)
		}
	}
	brute := func(s, p, o ID) []Triple {
		var out []Triple
		for _, x := range all {
			if (s == Wildcard || x.S == s) && (p == Wildcard || x.P == p) && (o == Wildcard || x.O == o) {
				out = append(out, x)
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
		return out
	}
	patterns := [][3]ID{}
	for _, s := range []ID{Wildcard, 3, 99} {
		for _, p := range []ID{Wildcard, 2, 99} {
			for _, o := range []ID{Wildcard, 7, 99} {
				patterns = append(patterns, [3]ID{s, p, o})
			}
		}
	}
	for _, pat := range patterns {
		got := g.Match(pat[0], pat[1], pat[2])
		sort.Slice(got, func(i, j int) bool { return got[i].Less(got[j]) })
		want := brute(pat[0], pat[1], pat[2])
		if len(got) != len(want) {
			t.Fatalf("pattern %v: got %d matches, want %d", pat, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("pattern %v: got[%d] = %v, want %v", pat, i, got[i], want[i])
			}
		}
		if n := g.CountMatch(pat[0], pat[1], pat[2]); n != len(want) {
			t.Fatalf("pattern %v: CountMatch = %d, want %d", pat, n, len(want))
		}
	}
}

func TestGraphForEachMatchEarlyStop(t *testing.T) {
	g := NewGraph()
	for i := ID(1); i <= 10; i++ {
		g.Add(tr(i, 1, i))
	}
	n := 0
	g.ForEachMatch(Wildcard, 1, Wildcard, func(Triple) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Fatalf("iteration visited %d triples after early stop, want 3", n)
	}
}

func TestGraphSortedTriplesIsDeterministic(t *testing.T) {
	g := NewGraph()
	g.Add(tr(2, 1, 1))
	g.Add(tr(1, 2, 1))
	g.Add(tr(1, 1, 2))
	got := g.SortedTriples()
	want := []Triple{tr(1, 1, 2), tr(1, 2, 1), tr(2, 1, 1)}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SortedTriples[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestSortedTriplesMatchesSortSlice checks the counting sort against a
// comparison sort of Triples: with tombstones (a deleted triple re-added
// leaves a dead and a live copy in the log), on subject IDs too sparse to
// count (the fallback), and with a 50k-triple hub beside runs of every
// short length.
func TestSortedTriplesMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dense := NewGraph()
	for i := 0; i < 20000; i++ {
		dense.Add(tr(ID(1+rng.Intn(3000)), ID(1+rng.Intn(20)), ID(1+rng.Intn(3000))))
	}
	var doomed []Triple
	for i, t := range dense.TriplesSince(0) {
		if i%7 == 0 {
			doomed = append(doomed, t)
		}
	}
	dense.Delete(doomed)
	for _, t := range doomed[:100] {
		dense.Add(t)
	}

	sparse := NewGraph()
	for i := 0; i < 500; i++ {
		sparse.Add(tr(ID(1+rng.Intn(1<<30)), ID(1+rng.Intn(5)), ID(1+rng.Intn(100))))
	}

	hub := NewGraph()
	for i := 0; i < 50000; i++ {
		hub.Add(tr(7, ID(1+rng.Intn(40)), ID(1+rng.Intn(1<<20))))
	}
	for s := ID(8); s < 40; s++ {
		for n := ID(0); n < s-8; n++ {
			hub.Add(tr(s, ID(1+rng.Intn(3)), ID(1+rng.Intn(1000))))
		}
	}

	for _, c := range []struct {
		name string
		g    *Graph
	}{{"dense with tombstones", dense}, {"sparse subjects", sparse}, {"hub", hub}} {
		name, g := c.name, c.g
		want := g.Triples()
		sort.Slice(want, func(i, j int) bool { return want[i].Less(want[j]) })
		got := g.SortedTriples()
		if len(got) != len(want) {
			t.Fatalf("%s: %d triples, want %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: SortedTriples[%d] = %v, want %v", name, i, got[i], want[i])
			}
		}
	}
	if got := NewGraph().SortedTriples(); got == nil || len(got) != 0 {
		t.Fatalf("empty graph sorts to %#v, want an empty slice", got)
	}
}

func TestGraphCloneIsDeep(t *testing.T) {
	g := NewGraph()
	g.Add(tr(1, 2, 3))
	c := g.Clone()
	c.Add(tr(4, 5, 6))
	if g.Has(tr(4, 5, 6)) {
		t.Fatal("mutating the clone affected the original")
	}
	if !c.Has(tr(1, 2, 3)) {
		t.Fatal("clone lost a triple")
	}
}

func TestGraphUnionAndEqual(t *testing.T) {
	a, b := NewGraph(), NewGraph()
	a.Add(tr(1, 2, 3))
	b.Add(tr(1, 2, 3))
	b.Add(tr(4, 5, 6))
	if a.Equal(b) {
		t.Fatal("Equal true for different graphs")
	}
	if n := a.Union(b); n != 1 {
		t.Fatalf("Union added %d, want 1", n)
	}
	if !a.Equal(b) {
		t.Fatal("Equal false after union")
	}
}

func TestGraphDiff(t *testing.T) {
	a, b := NewGraph(), NewGraph()
	a.Add(tr(1, 2, 3))
	a.Add(tr(4, 5, 6))
	b.Add(tr(1, 2, 3))
	d := a.Diff(b)
	if len(d) != 1 || d[0] != tr(4, 5, 6) {
		t.Fatalf("Diff = %v", d)
	}
	if len(b.Diff(a)) != 0 {
		t.Fatal("Diff of subset must be empty")
	}
}

func TestGraphResourcesAndSubjects(t *testing.T) {
	g := NewGraph()
	g.Add(tr(1, 2, 3))
	g.Add(tr(3, 2, 4))
	res := g.Resources()
	for _, id := range []ID{1, 3, 4} {
		if _, ok := res[id]; !ok {
			t.Fatalf("Resources missing %d", id)
		}
	}
	if _, ok := res[2]; ok {
		t.Fatal("Resources must not include predicates")
	}
	subj := g.Subjects()
	if len(subj) != 2 {
		t.Fatalf("Subjects = %v", subj)
	}
}

// TestGraphIndexConsistencyProperty: after any sequence of adds, every
// triple is findable through every index path.
func TestGraphIndexConsistencyProperty(t *testing.T) {
	f := func(raw [][3]uint8) bool {
		g := NewGraph()
		var all []Triple
		for _, r := range raw {
			x := tr(ID(r[0])+1, ID(r[1])+1, ID(r[2])+1)
			if g.Add(x) {
				all = append(all, x)
			}
		}
		if g.Len() != len(all) {
			return false
		}
		for _, x := range all {
			if !g.Has(x) {
				return false
			}
			for _, pat := range [][3]ID{
				{x.S, x.P, x.O},
				{x.S, x.P, Wildcard},
				{Wildcard, x.P, x.O},
				{x.S, Wildcard, x.O},
				{x.S, Wildcard, Wildcard},
				{Wildcard, x.P, Wildcard},
				{Wildcard, Wildcard, x.O},
			} {
				found := false
				g.ForEachMatch(pat[0], pat[1], pat[2], func(y Triple) bool {
					if y == x {
						found = true
						return false
					}
					return true
				})
				if !found {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
