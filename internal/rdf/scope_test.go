package rdf

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// randPreds draws a coverage over randTriple's eight predicates: none, all,
// or a random subset.
func randPreds(rng *rand.Rand) *PredSet {
	switch rng.Intn(4) {
	case 0:
		return nil
	case 1:
		return AllPreds
	}
	var ps []ID
	for p := ID(1); p <= 8; p++ {
		if rng.Intn(2) == 0 {
			ps = append(ps, p)
		}
	}
	return Preds(ps...)
}

// randScope draws a coverage per index: byS and byO full or not, bySP, byPO
// and byP any of randPreds'.
func randScope(rng *rand.Rand) Scope {
	sc := Scope{SP: randPreds(rng), PO: randPreds(rng), P: randPreds(rng)}
	for _, ix := range []IndexSet{IndexS, IndexO} {
		if rng.Intn(3) == 0 {
			sc.Full |= ix
		}
	}
	return sc
}

// indexedAgrees fails unless g.Indexed says of every shape of every probe
// whether matching and counting it scans the log: the log-scan counter
// moves exactly for the constant-predicate shapes Indexed calls uncovered.
// A snapshot answers the same but for the fully bound shape, which it
// resolves through bySP or byPO instead of the writer's dedup table.
func indexedAgrees(t *testing.T, where string, g *Graph, probes []Triple) {
	t.Helper()
	scans := func(f func()) bool {
		before := LogScans()
		f()
		return LogScans() != before
	}
	for _, tr := range probes {
		for _, pat := range patternShapes(tr) {
			s, p, o := pat[0], pat[1], pat[2]
			if p == Wildcard {
				continue
			}
			indexed := g.Indexed(s, p, o)
			if scans(func() {
				g.CountMatch(s, p, o)
				g.ForEachMatch(s, p, o, func(Triple) bool { return true })
			}) == indexed {
				t.Fatalf("%s: Indexed(%v) = %v, and the match scanned the log: %v", where, pat, indexed, !indexed)
			}
			if s != Wildcard && o != Wildcard {
				indexed = g.bySP.covers(p) || g.byPO.covers(p)
			}
			sn := g.Snapshot()
			if scans(func() {
				sn.CountMatch(s, p, o)
				sn.ForEachMatch(s, p, o, func(Triple) bool { return true })
			}) == indexed {
				t.Fatalf("%s: a snapshot's match of %v scanned the log: %v", where, pat, !indexed)
			}
		}
	}
}

// TestScopedIndexesAnswerLikeFull drives a graph whose bySP, byPO and byP
// cover random predicate sets — and whose byS and byO are built or not —
// through random inserts, deletes, unions with other scoped graphs,
// compactions, clones, scope extensions and completions, next to a graph
// with every index full. After every step the two must answer every
// pattern shape alike, on the graph and on a snapshot (Match rows and
// order, CountMatch including its tombstone upper bounds, Has), Clone and
// Compact must carry the coverage, Union and inserts must keep it, and
// Indexed must say which shapes scan the log.
func TestScopedIndexesAnswerLikeFull(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
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
			g.BuildScope(randScope(rng))
			batch := func() []Triple {
				b := make([]Triple, 1+rng.Intn(20))
				for i := range b {
					b[i] = randTriple(rng)
				}
				return b
			}
			for step := 0; step < 150; step++ {
				where := fmt.Sprintf("step %d", step)
				before := g.Scope()
				grows := false
				switch k := rng.Intn(12); {
				case k < 4:
					b := batch()
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
					other := NewGraph()
					other.BuildScope(randScope(rng))
					other.AddAll(batch())
					if rng.Intn(2) == 0 {
						other.Delete(other.Triples()[:1])
					}
					if got, want := g.Union(other), ref.Union(other); got != want {
						t.Fatalf("%s: Union = %d, fully indexed %d", where, got, want)
					}
				case k < 8:
					g, ref = g.Compact(), ref.Compact()
				case k < 9:
					g, ref = g.Clone(), ref.Clone()
				case k < 11:
					grows = true
					sc := randScope(rng)
					g.BuildScope(sc)
					for ix := IndexS; ix <= IndexPO; ix <<= 1 {
						if have := g.Scope().Of(ix); !sc.Of(ix).SubsetOf(have) || !before.Of(ix).SubsetOf(have) {
							t.Fatalf("%s: BuildScope(%+v) over %+v left index %05b covering %+v", where, sc, before, ix, have)
						}
					}
				default:
					grows = true
					set := IndexSet(rng.Intn(int(AllIndexes) + 1))
					g.BuildIndexes(set)
					if g.Scope().Full&set != set {
						t.Fatalf("%s: BuildIndexes(%05b) left full %05b", where, set, g.Scope().Full)
					}
				}
				if !grows && g.Scope() != before {
					t.Fatalf("%s: the scope changed from %+v to %+v", where, before, g.Scope())
				}
				probes := []Triple{randTriple(rng), randTriple(rng)}
				if log := ref.TriplesSince(0); len(log) > 0 {
					probes = append(probes, log[rng.Intn(len(log))])
				}
				sameAnswers(t, where, g, ref, probes)
				indexedAgrees(t, where, g, probes)
			}
			g.BuildIndexes(AllIndexes)
			if sc := g.Scope(); sc != (Scope{Full: AllIndexes}) {
				t.Fatalf("completion left scope %+v", sc)
			}
			probes := ref.TriplesSince(0)
			sameAnswers(t, "completed", g, ref, probes[:min(len(probes), 40)])
		})
	}
}

// TestSnapshotReadersDuringScopeCompletion races snapshot readers against a
// writer that extends a scoped bySP, byPO and byP predicate by predicate,
// completes them and every other index, and inserts on. Every reader's
// answers must be those of its own pinned prefix, whichever coverage it
// reads; run it under -race.
func TestSnapshotReadersDuringScopeCompletion(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := NewGraph()
	g.BuildScope(Scope{SP: Preds(1), PO: Preds(2), P: Preds(1, 3)})
	for i := 0; i < 20000; i++ {
		g.Add(Triple{ID(rng.Intn(500) + 1), ID(rng.Intn(12) + 1), ID(rng.Intn(500) + 1)})
	}
	probes := g.TriplesSince(0)[:24]
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
	for p := ID(1); p <= 12; p++ {
		g.BuildScope(Scope{SP: Preds(p), PO: Preds(p), P: Preds(p)})
		g.Add(Triple{ID(rng.Intn(500) + 1), ID(rng.Intn(12) + 1), ID(rng.Intn(500) + 1)})
	}
	g.BuildIndexes(AllIndexes)
	for i := 0; i < 2000; i++ {
		g.Add(Triple{ID(rng.Intn(500) + 1), ID(rng.Intn(12) + 1), ID(rng.Intn(500) + 1)})
	}
	done.Store(true)
	wg.Wait()
}

// TestPredSet pins the set algebra coverage is built on.
func TestPredSet(t *testing.T) {
	var none *PredSet
	a, b := Preds(1, 70), Preds(70, 3)
	u := a.Union(b)
	for p, want := range map[ID]bool{1: true, 3: true, 70: true, 2: false, 200: false} {
		if u.Has(p) != want {
			t.Errorf("(%v ∪ %v).Has(%d) = %v", a, b, p, !want)
		}
	}
	switch {
	case !a.SubsetOf(u) || u.SubsetOf(a) || !none.SubsetOf(a) || a.SubsetOf(none) || !u.SubsetOf(AllPreds) || AllPreds.SubsetOf(u):
		t.Error("SubsetOf")
	case a.Union(none) != a || none.Union(a) != a || a.Union(AllPreds) != AllPreds || u.Union(a) != u:
		t.Error("Union does not return the containing set")
	case Preds() != nil || none.Has(1) || !AllPreds.Has(12345):
		t.Error("empty and full sets")
	}
}
