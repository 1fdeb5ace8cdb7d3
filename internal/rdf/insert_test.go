package rdf

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// refAdd is the per-triple insert that the range insert replaced, kept here
// as its reference: membership probe, reserve, the five postings, the
// derived bit, the provenance record and the log commit, all for one triple
// before the next one starts.
func refAdd(g *Graph, t Triple, d Derivation, derived bool) bool {
	if g.Has(t) {
		return false
	}
	off := uint32(g.log.length())
	g.seen.reserve(g.log.view(), g.dead.Load(), 1)
	g.byS.append1(key1(t.S), off)
	g.byP.append1(key1(t.P), off)
	g.byO.append1(key1(t.O), off)
	g.bySP.append1(key2(t.S, t.P), spEntry{Term: t.O, Off: off})
	g.byPO.append1(key2(t.P, t.O), spEntry{Term: t.S, Off: off})
	if derived {
		for int(off>>6) >= len(g.derived) {
			g.derived = append(g.derived, 0)
		}
		g.derived[off>>6] |= 1 << (off & 63)
	}
	if g.prov != nil {
		g.prov.recs.grow(1)
		g.prov.recs.put(int(off), d)
		g.prov.recs.publish(int(off) + 1)
	}
	g.log.grow(1)
	g.log.put(int(off), t)
	g.log.publish(int(off) + 1)
	g.seen.place(t, off)
	return true
}

// largeBatch is the floor of the property test's large batches: large enough
// that one batch grows the log, the dedup table, the slot tables and the
// arenas partway through.
const largeBatch = 4096

// insertWorkload draws batches for the range-insert property test: fresh
// triples, duplicates inside the batch, duplicates of live triples and
// re-adds of tombstoned ones, from empty and one-triple batches to ones past
// largeBatch.
type insertWorkload struct {
	rng *rand.Rand
	ref *Graph
}

func (w insertWorkload) batch() []Triple {
	n, universe := 1+w.rng.Intn(48), 40
	switch w.rng.Intn(6) {
	case 0:
		n = w.rng.Intn(2) // empty or one
	case 1, 2:
		n, universe = largeBatch+1+w.rng.Intn(600), 900
	}
	log := w.ref.TriplesSince(0)
	out := make([]Triple, 0, n)
	for len(out) < n {
		switch k := w.rng.Intn(10); {
		case k < 5 || len(log) == 0:
			out = append(out, Triple{ID(1 + w.rng.Intn(universe)), ID(1 + w.rng.Intn(6)), ID(1 + w.rng.Intn(universe))})
		case k < 7 && len(out) > 0:
			out = append(out, out[w.rng.Intn(len(out))]) // duplicate within the batch
		default:
			out = append(out, log[w.rng.Intn(len(log))]) // live, or tombstoned if deleted since
		}
	}
	return out
}

func (w insertWorkload) derivation() Derivation {
	r := func() uint32 { return uint32(w.rng.Intn(1000)) }
	return Derivation{Rule: uint16(w.rng.Intn(5)), Round: uint16(w.rng.Intn(9)), Prem: [3]uint32{r(), r(), NoPremise}}
}

// sameStore fails unless g and ref hold identical stores: the same log at
// the same offsets, tombstones, derived bits and provenance records; the same
// dedup membership and the same five posting lists, dead entries included,
// for the keys of every triple in keys; and the same answers to the eight
// pattern shapes of every triple in probes.
func sameStore(t *testing.T, where string, g, ref *Graph, keys, probes []Triple) {
	t.Helper()
	log, rlog := g.TriplesSince(0), ref.TriplesSince(0)
	if !slices.Equal(log, rlog) {
		t.Fatalf("%s: log differs (%d vs %d triples)", where, len(log), len(rlog))
	}
	if g.Dead() != ref.Dead() || g.seen.count != ref.seen.count {
		t.Fatalf("%s: dead %d/%d, dedup count %d/%d", where, g.Dead(), ref.Dead(), g.seen.count, ref.seen.count)
	}
	type key struct {
		ix int
		k  uint64
	}
	seen := map[key]bool{}
	for _, tr := range keys {
		off, ok := g.Offset(tr)
		roff, rok := ref.Offset(tr)
		if off != roff || ok != rok {
			t.Fatalf("%s: Offset(%v) = %d,%v, per-triple reference %d,%v", where, tr, off, ok, roff, rok)
		}
		for ix, k := range [5]uint64{key1(tr.S), key1(tr.P), key1(tr.O), key2(tr.S, tr.P), key2(tr.P, tr.O)} {
			if seen[key{ix, k}] {
				continue
			}
			seen[key{ix, k}] = true
			var same bool
			switch ix {
			case 0:
				same = slices.Equal(g.byS.get(k), ref.byS.get(k))
			case 1:
				same = slices.Equal(g.byP.get(k), ref.byP.get(k))
			case 2:
				same = slices.Equal(g.byO.get(k), ref.byO.get(k))
			case 3:
				same = slices.Equal(g.bySP.get(k), ref.bySP.get(k))
			case 4:
				same = slices.Equal(g.byPO.get(k), ref.byPO.get(k))
			}
			if !same {
				t.Fatalf("%s: index %d's posting list for the key of %v differs", where, ix, tr)
			}
		}
	}
	for _, tr := range probes {
		for _, pat := range patternShapes(tr) {
			if got, want := g.Match(pat[0], pat[1], pat[2]), ref.Match(pat[0], pat[1], pat[2]); !slices.Equal(got, want) {
				t.Fatalf("%s: Match(%v) = %d rows, per-triple reference %d", where, pat, len(got), len(want))
			}
			if got, want := g.CountMatch(pat[0], pat[1], pat[2]), ref.CountMatch(pat[0], pat[1], pat[2]); got != want {
				t.Fatalf("%s: CountMatch(%v) = %d, per-triple reference %d", where, pat, got, want)
			}
		}
	}
	for off := range log {
		if g.IsDerivedOffset(uint32(off)) != ref.IsDerivedOffset(uint32(off)) {
			t.Fatalf("%s: derived bit of offset %d differs", where, off)
		}
	}
	if (g.Prov() == nil) != (ref.Prov() == nil) {
		t.Fatalf("%s: provenance on %v, reference %v", where, g.Prov() != nil, ref.Prov() != nil)
	}
	if g.Prov() != nil {
		if g.Prov().Len() != ref.Prov().Len() {
			t.Fatalf("%s: %d provenance records, reference %d", where, g.Prov().Len(), ref.Prov().Len())
		}
		for off := range log {
			if g.Prov().At(uint32(off)) != ref.Prov().At(uint32(off)) {
				t.Fatalf("%s: provenance record of offset %d differs", where, off)
			}
		}
	}
}

// TestRangeInsertMatchesPerTriple drives AddAll, AddDerivedAll and Union
// (whose source has tombstones, so it inserts several live runs) against the
// per-triple reference, interleaved with deletions whose triples the later
// batches re-add, with provenance off and on, at GOMAXPROCS 1, 2 and 4. After
// every operation the two stores must be identical structure by structure on
// the keys the operation touched, and at the end of a run on every key.
func TestRangeInsertMatchesPerTriple(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		for _, prov := range []bool{false, true} {
			t.Run(fmt.Sprintf("procs=%d/prov=%v", procs, prov), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				for seed := int64(1); seed <= 2; seed++ {
					rng := rand.New(rand.NewSource(seed*10 + int64(procs)))
					g, ref := NewGraph(), NewGraph()
					if prov {
						g.EnableProv()
						ref.EnableProv()
					}
					w := insertWorkload{rng: rng, ref: ref}
					for step := 0; step < 24; step++ {
						where := fmt.Sprintf("seed %d step %d", seed, step)
						var op string
						var b []Triple // the triples the operation touched
						switch k := rng.Intn(8); {
						case k < 3:
							op = "AddAll"
							b = w.batch()
							n := 0
							for _, tr := range b {
								if refAdd(ref, tr, baseDerivation(), false) {
									n++
								}
							}
							if got := g.AddAll(b); got != n {
								t.Fatalf("%s: AddAll of %d = %d, reference %d", where, len(b), got, n)
							}
						case k < 5:
							op = "AddDerivedAll"
							b = w.batch()
							d := w.derivation()
							base, n := g.Len(), 0
							for _, tr := range b {
								if refAdd(ref, tr, d, true) {
									n++
								}
							}
							if got := g.AddDerivedAll(b, d); got != n || len(g.TriplesSince(base)) != n {
								t.Fatalf("%s: AddDerivedAll of %d = %d (%d past the old length), reference %d", where, len(b), got, len(g.TriplesSince(base)), n)
							}
						case k < 7:
							op = "Union"
							other := NewGraph()
							b = w.batch()
							other.AddAll(b)
							if ol := other.TriplesSince(0); len(ol) > 0 {
								var del []Triple
								for _, tr := range ol {
									if rng.Intn(5) == 0 {
										del = append(del, tr)
									}
								}
								other.Delete(del)
							}
							n := 0
							for i, tr := range other.TriplesSince(0) {
								if other.IsLiveOffset(uint32(i)) && refAdd(ref, tr, baseDerivation(), false) {
									n++
								}
							}
							if got := g.Union(other); got != n {
								t.Fatalf("%s: Union = %d, reference %d", where, got, n)
							}
						default:
							op = "Delete"
							for _, tr := range ref.Triples() {
								if rng.Intn(4) == 0 {
									b = append(b, tr)
								}
							}
							if got, want := g.Delete(b), ref.Delete(b); got != want {
								t.Fatalf("%s: Delete = %d, reference %d", where, got, want)
							}
						}
						probes := []Triple{{2, 3, 4}}
						if log := ref.TriplesSince(0); len(log) > 0 {
							for i := 0; i < 3; i++ {
								probes = append(probes, log[rng.Intn(len(log))])
							}
						}
						sameStore(t, where+" after "+op, g, ref, append(b, probes...), probes)
					}
					sameStore(t, fmt.Sprintf("seed %d at the end", seed), g, ref, ref.TriplesSince(0), nil)
				}
			})
		}
	}
}

// TestAddDerivedAllCommitRange pins what the fire loop's commit relies on:
// the triples a range insert added are exactly TriplesSince the length
// before it, in input order, first copy of each.
func TestAddDerivedAllCommitRange(t *testing.T) {
	g := NewGraph()
	g.AddAll([]Triple{tr(1, 1, 1), tr(2, 2, 2)})
	g.Delete([]Triple{tr(2, 2, 2)})
	base := g.Len()
	in := []Triple{tr(3, 3, 3), tr(1, 1, 1), tr(2, 2, 2), tr(3, 3, 3), tr(4, 4, 4)}
	if n := g.AddDerivedAll(in, Derivation{}); n != 3 {
		t.Fatalf("AddDerivedAll = %d, want 3", n)
	}
	want := []Triple{tr(3, 3, 3), tr(2, 2, 2), tr(4, 4, 4)}
	if got := g.TriplesSince(base); !slices.Equal(got, want) {
		t.Fatalf("TriplesSince(%d) = %v, want %v", base, got, want)
	}
	for off := base; off < g.Len(); off++ {
		if !g.IsDerivedOffset(uint32(off)) {
			t.Fatalf("offset %d not marked derived", off)
		}
	}
	if g.IsDerivedOffset(0) {
		t.Fatal("asserted offset 0 marked derived")
	}
}
