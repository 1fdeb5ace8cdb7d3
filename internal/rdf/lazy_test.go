package rdf

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// sameAnswers fails unless g and ref — the same triples, ref with every
// index built — answer every pattern shape of every probe identically, on
// the graphs and on snapshots of them: the same Match rows in the same
// order, the same CountMatch (upper bounds under tombstones included), and
// the same Has.
func sameAnswers(t *testing.T, where string, g, ref *Graph, probes []Triple) {
	t.Helper()
	gs, rs := g.Snapshot(), ref.Snapshot()
	for _, tr := range probes {
		if g.Has(tr) != ref.Has(tr) || gs.Has(tr) != rs.Has(tr) {
			t.Fatalf("%s: Has(%v) differs from the fully indexed graph", where, tr)
		}
		for _, pat := range patternShapes(tr) {
			s, p, o := pat[0], pat[1], pat[2]
			if got, want := g.Match(s, p, o), ref.Match(s, p, o); !slices.Equal(got, want) {
				t.Fatalf("%s: Match(%v) = %v, fully indexed %v", where, pat, got, want)
			}
			if got, want := g.CountMatch(s, p, o), ref.CountMatch(s, p, o); got != want {
				t.Fatalf("%s: CountMatch(%v) = %d, fully indexed %d", where, pat, got, want)
			}
			if got, want := gs.Match(s, p, o), rs.Match(s, p, o); !slices.Equal(got, want) {
				t.Fatalf("%s: Snapshot.Match(%v) = %v, fully indexed %v", where, pat, got, want)
			}
			if got, want := gs.CountMatch(s, p, o), rs.CountMatch(s, p, o); got != want {
				t.Fatalf("%s: Snapshot.CountMatch(%v) = %d, fully indexed %d", where, pat, got, want)
			}
		}
	}
}

// TestLazyIndexesAnswerLikeBuilt drives a graph that builds its indexes
// only when asked, one random set at a time, through random inserts,
// deletes, compactions and clones, next to a graph built with every index
// from the start. Some runs begin from FromDistinct, with no dedup table
// either. After every step the two must answer every pattern shape alike.
func TestLazyIndexesAnswerLikeBuilt(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			ref := NewGraph()
			ref.BuildIndexes(AllIndexes)
			var g *Graph
			if seed%2 == 0 {
				first := map[Triple]bool{}
				var ts []Triple
				for len(ts) < 60 {
					if tr := randTriple(rng); !first[tr] {
						first[tr] = true
						ts = append(ts, tr)
					}
				}
				ref.AddAll(ts)
				g = FromDistinct(slices.Clone(ts))
			} else {
				g = NewGraph()
			}
			for step := 0; step < 120; step++ {
				where := fmt.Sprintf("step %d", step)
				switch k := rng.Intn(10); {
				case k < 4:
					b := make([]Triple, 1+rng.Intn(20))
					for i := range b {
						b[i] = randTriple(rng)
					}
					if got, want := g.AddAll(b), ref.AddAll(b); got != want {
						t.Fatalf("%s: AddAll = %d, fully indexed %d", where, got, want)
					}
				case k < 6:
					var b []Triple
					for _, tr := range ref.Triples() {
						if rng.Intn(5) == 0 {
							b = append(b, tr)
						}
					}
					if got, want := g.Delete(b), ref.Delete(b); got != want {
						t.Fatalf("%s: Delete = %d, fully indexed %d", where, got, want)
					}
				case k < 7:
					g, ref = g.Compact(), ref.Compact()
				case k < 8:
					g, ref = g.Clone(), ref.Clone()
				default:
					g.BuildIndexes(IndexSet(rng.Intn(int(AllIndexes) + 1)))
				}
				probes := []Triple{randTriple(rng), randTriple(rng)}
				if log := ref.TriplesSince(0); len(log) > 0 {
					probes = append(probes, log[rng.Intn(len(log))])
				}
				sameAnswers(t, where, g, ref, probes)
			}
			if ref.Scope().Full != AllIndexes {
				t.Fatalf("the fully indexed graph lost indexes: %05b", ref.Scope().Full)
			}
		})
	}
}

// TestSnapshotReadersDuringFirstBuild races snapshot readers against the
// writer's first BuildIndexes and the inserts after it. Every reader's
// answers must be those of its own pinned prefix, whether it reads each
// index's coverage before or after the build publishes it; run it under
// -race.
func TestSnapshotReadersDuringFirstBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := NewGraph()
	for i := 0; i < 20000; i++ {
		g.Add(Triple{ID(rng.Intn(500) + 1), ID(rng.Intn(12) + 1), ID(rng.Intn(500) + 1)})
	}
	probes := g.TriplesSince(0)[:16]
	var done atomic.Bool
	var wg, started sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		started.Add(1)
		go func() {
			defer wg.Done()
			for first := true; !done.Load(); first = false {
				if first {
					started.Done()
				}
				sn := g.Snapshot()
				prefix := sn.Triples()
				for _, tr := range probes {
					for _, pat := range patternShapes(tr) {
						n := refCount(prefix, pat[0], pat[1], pat[2])
						if got := sn.CountMatch(pat[0], pat[1], pat[2]); got != n {
							t.Errorf("CountMatch(%v) at watermark %d = %d, want %d", pat, sn.Watermark(), got, n)
							return
						}
						if got := len(sn.Match(pat[0], pat[1], pat[2])); got != n {
							t.Errorf("Match(%v) at watermark %d = %d rows, want %d", pat, sn.Watermark(), got, n)
							return
						}
					}
				}
			}
		}()
	}
	started.Wait()
	g.BuildIndexes(AllIndexes)
	for i := 0; i < 2000; i++ {
		g.Add(Triple{ID(rng.Intn(500) + 1), ID(rng.Intn(12) + 1), ID(rng.Intn(500) + 1)})
	}
	done.Store(true)
	wg.Wait()
}
