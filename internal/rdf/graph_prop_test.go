package rdf

import (
	"math/rand"
	"sort"
	"testing"
)

// graphModel is the reference implementation the property test checks the
// compact store against: a plain triple set with brute-force matching.
type graphModel map[Triple]struct{}

func (m graphModel) add(t Triple) {
	m[t] = struct{}{}
}

func (m graphModel) countMatch(s, p, o ID) int {
	n := 0
	for t := range m {
		if (s == Wildcard || t.S == s) && (p == Wildcard || t.P == p) && (o == Wildcard || t.O == o) {
			n++
		}
	}
	return n
}

func (m graphModel) sorted() []Triple {
	out := make([]Triple, 0, len(m))
	for t := range m {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

func randTriple(rng *rand.Rand) Triple {
	return Triple{
		S: ID(1 + rng.Intn(24)),
		P: ID(1 + rng.Intn(8)),
		O: ID(1 + rng.Intn(24)),
	}
}

// checkCoherent verifies every read-side invariant of g against the model:
// cardinality, membership, log contents, match extents, and count/match
// agreement for all eight pattern shapes.
func checkCoherent(t *testing.T, g *Graph, m graphModel, rng *rand.Rand) {
	t.Helper()
	if g.Len() != len(m) {
		t.Fatalf("Len = %d, model has %d", g.Len(), len(m))
	}
	got := g.Triples()
	sort.Slice(got, func(i, j int) bool { return got[i].Less(got[j]) })
	want := m.sorted()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Triples()[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if v := g.TriplesSince(0); len(v) != len(m) {
		t.Fatalf("TriplesSince(0) has %d triples, want %d", len(v), len(m))
	}
	// Probe membership with both present and (mostly) absent triples.
	for i := 0; i < 16; i++ {
		pt := randTriple(rng)
		_, inModel := m[pt]
		if g.Has(pt) != inModel {
			t.Fatalf("Has(%v) = %v, model says %v", pt, !inModel, inModel)
		}
	}
	if len(want) > 0 {
		pt := want[rng.Intn(len(want))]
		if !g.Has(pt) {
			t.Fatalf("Has(%v) = false for stored triple", pt)
		}
	}
	// All eight pattern shapes: each position independently bound/wild.
	probe := randTriple(rng)
	if len(want) > 0 && rng.Intn(2) == 0 {
		probe = want[rng.Intn(len(want))] // bias toward non-empty extents
	}
	for mask := 0; mask < 8; mask++ {
		s, p, o := Wildcard, Wildcard, Wildcard
		if mask&1 != 0 {
			s = probe.S
		}
		if mask&2 != 0 {
			p = probe.P
		}
		if mask&4 != 0 {
			o = probe.O
		}
		wantN := m.countMatch(s, p, o)
		if gotN := g.CountMatch(s, p, o); gotN != wantN {
			t.Fatalf("CountMatch(%d,%d,%d) = %d, want %d", s, p, o, gotN, wantN)
		}
		seen := map[Triple]struct{}{}
		g.ForEachMatch(s, p, o, func(tr Triple) bool {
			if _, dup := seen[tr]; dup {
				t.Fatalf("ForEachMatch(%d,%d,%d) yielded %v twice", s, p, o, tr)
			}
			seen[tr] = struct{}{}
			if _, ok := m[tr]; !ok {
				t.Fatalf("ForEachMatch(%d,%d,%d) yielded %v not in model", s, p, o, tr)
			}
			if (s != Wildcard && tr.S != s) || (p != Wildcard && tr.P != p) || (o != Wildcard && tr.O != o) {
				t.Fatalf("ForEachMatch(%d,%d,%d) yielded non-matching %v", s, p, o, tr)
			}
			return true
		})
		if len(seen) != wantN {
			t.Fatalf("ForEachMatch(%d,%d,%d) yielded %d triples, want %d", s, p, o, len(seen), wantN)
		}
	}
}

// TestGraphPropertyCoherence drives randomized interleavings of
// Add/AddAll/Union/Clone against the reference model and checks after every
// operation that the set, the log, and all the posting-list indexes agree.
// Clone switches the walk onto the copy and later re-verifies the original,
// so mutations of a clone must never leak backing arrays into its source.
// It runs with no index built and with every index built.
func TestGraphPropertyCoherence(t *testing.T) {
	for _, ix := range indexings {
		t.Run(ix.name, func(t *testing.T) {
			for seed := int64(1); seed <= 8; seed++ {
				rng := rand.New(rand.NewSource(seed))
				g := NewGraph()
				g.BuildIndexes(ix.set)
				m := graphModel{}
				// Snapshots taken at Clone points: the original graph and a frozen
				// copy of its model, re-checked at the end for leaked mutations.
				type snap struct {
					g *Graph
					m graphModel
				}
				var snaps []snap
				for step := 0; step < 120; step++ {
					switch op := rng.Intn(10); {
					case op < 4: // Add one
						tr := randTriple(rng)
						_, had := m[tr]
						if added := g.Add(tr); added == had {
							t.Fatalf("seed %d step %d: Add(%v) = %v, model had %v", seed, step, tr, added, had)
						}
						m.add(tr)
					case op < 6: // AddAll a batch
						batch := make([]Triple, rng.Intn(20))
						for i := range batch {
							batch[i] = randTriple(rng)
						}
						g.AddAll(batch)
						for _, tr := range batch {
							m.add(tr)
						}
					case op < 8: // Union with a random other graph
						other := NewGraph()
						for i, k := 0, rng.Intn(25); i < k; i++ {
							other.Add(randTriple(rng))
						}
						g.Union(other)
						for _, tr := range other.Triples() {
							m.add(tr)
						}
					default: // Clone and continue on the copy
						fm := graphModel{}
						for tr := range m {
							fm.add(tr)
						}
						snaps = append(snaps, snap{g: g, m: fm})
						g = g.Clone()
					}
					checkCoherent(t, g, m, rng)
				}
				// The clones diverged after the snapshots; the originals must not
				// have moved.
				for i, s := range snaps {
					checkCoherent(t, s.g, s.m, rng)
					if i > 20 {
						break
					}
				}
			}
		})
	}
}

// TestGraphTriplesSinceView pins the read-only-view contract: the slice
// returned by TriplesSince must stay valid and unchanged while the graph
// keeps growing (the log is append-only, never moved in place).
func TestGraphTriplesSinceView(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := NewGraph()
	for i := 0; i < 50; i++ {
		g.Add(randTriple(rng))
	}
	mark := g.Len()
	var fresh []Triple
	for len(fresh) < 30 {
		tr := randTriple(rng)
		if g.Add(tr) {
			fresh = append(fresh, tr)
		}
	}
	view := g.TriplesSince(mark)
	if len(view) != len(fresh) {
		t.Fatalf("TriplesSince(%d) has %d triples, want %d", mark, len(view), len(fresh))
	}
	for i := range fresh {
		if view[i] != fresh[i] {
			t.Fatalf("view[%d] = %v, want %v (log must preserve insertion order)", i, view[i], fresh[i])
		}
	}
	// Growing the graph afterwards must not disturb the captured view.
	before := append([]Triple(nil), view...)
	for i := 0; i < 500; i++ {
		g.Add(randTriple(rng))
	}
	for i := range before {
		if view[i] != before[i] {
			t.Fatalf("view[%d] changed from %v to %v after growth", i, before[i], view[i])
		}
	}
}
