package rdf

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// refCount brute-forces a pattern count over a triple slice.
func refCount(ts []Triple, s, p, o ID) int {
	n := 0
	for _, t := range ts {
		if (s == Wildcard || t.S == s) && (p == Wildcard || t.P == p) && (o == Wildcard || t.O == o) {
			n++
		}
	}
	return n
}

// patternShapes enumerates all 8 bound/wildcard shapes for t.
func patternShapes(t Triple) [8][3]ID {
	w := Wildcard
	return [8][3]ID{
		{t.S, t.P, t.O},
		{t.S, t.P, w},
		{w, t.P, t.O},
		{t.S, w, t.O},
		{t.S, w, w},
		{w, t.P, w},
		{w, w, t.O},
		{w, w, w},
	}
}

// indexings are the two ways the model tests build their graphs: with no
// index, so every pattern shape is answered by a scan of the log, and with
// every index built, so every shape is answered by its posting lists.
var indexings = []struct {
	name string
	set  IndexSet
}{{"log", 0}, {"indexed", AllIndexes}}

// TestSnapshotPrefixSemantics pins a snapshot after every insertion and
// verifies, once the graph has grown far past each pin, that every snapshot
// still answers exactly as a graph containing only its prefix would, once
// with no index built and once with every index built.
func TestSnapshotPrefixSemantics(t *testing.T) {
	for _, ix := range indexings {
		t.Run(ix.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			const n = 400
			stream := make([]Triple, n)
			for i := range stream {
				stream[i] = Triple{ID(rng.Intn(20) + 1), ID(rng.Intn(6) + 1), ID(rng.Intn(20) + 1)}
			}
			g := NewGraph()
			g.BuildIndexes(ix.set)
			var snaps []Snapshot
			for _, tr := range stream {
				g.Add(tr)
				snaps = append(snaps, g.Snapshot())
			}
			full := g.Triples()
			for i, sn := range snaps {
				if sn.Len() != sn.Watermark() {
					t.Fatalf("snapshot %d: Len %d != Watermark %d", i, sn.Len(), sn.Watermark())
				}
				prefix := full[:sn.Len()]
				if got := sn.Triples(); len(got) != len(prefix) {
					t.Fatalf("snapshot %d: %d visible triples, want %d", i, len(got), len(prefix))
				}
				// Check a sample of patterns: in-prefix, most recent (boundary), and
				// beyond-watermark triples.
				samples := []Triple{prefix[0], prefix[len(prefix)-1]}
				if sn.Len() < len(full) {
					samples = append(samples, full[sn.Len()])
				}
				for _, tr := range samples {
					for _, pat := range patternShapes(tr) {
						want := refCount(prefix, pat[0], pat[1], pat[2])
						if got := sn.CountMatch(pat[0], pat[1], pat[2]); got != want {
							t.Fatalf("snapshot %d: CountMatch(%v) = %d, want %d", i, pat, got, want)
						}
						if got := len(sn.Match(pat[0], pat[1], pat[2])); got != want {
							t.Fatalf("snapshot %d: Match(%v) = %d rows, want %d", i, pat, got, want)
						}
					}
					if got, want := sn.Has(tr), refCount(prefix, tr.S, tr.P, tr.O) > 0; got != want {
						t.Fatalf("snapshot %d: Has(%v) = %v, want %v", i, tr, got, want)
					}
				}
			}
		})
	}
}

// TestSnapshotStableUnderConcurrentWriter is the MVCC acceptance test: one
// writer goroutine keeps appending via Add/AddAll while N reader goroutines
// pin snapshots and interrogate them. Every reader asserts that each pinned
// view holds exactly its watermark — same length on re-read, pattern counts
// that agree with a brute-force scan of the pinned triples, and no triple
// from beyond the watermark leaking in. Run under -race this also proves
// the lock-free publication protocol has no data races. It runs with no
// index built and with every index built.
func TestSnapshotStableUnderConcurrentWriter(t *testing.T) {
	for _, ix := range indexings {
		t.Run(ix.name, func(t *testing.T) {
			g := NewGraph()
			g.BuildIndexes(ix.set)
			const writerTriples = 30000
			var done atomic.Bool
			var wg sync.WaitGroup

			wg.Add(1)
			go func() {
				defer wg.Done()
				defer done.Store(true)
				rng := rand.New(rand.NewSource(7))
				i := 0
				for i < writerTriples {
					if rng.Intn(4) == 0 {
						batch := make([]Triple, rng.Intn(64)+1)
						for j := range batch {
							batch[j] = Triple{ID(rng.Intn(500) + 1), ID(rng.Intn(12) + 1), ID(rng.Intn(500) + 1)}
						}
						g.AddAll(batch)
						i += len(batch)
					} else {
						g.Add(Triple{ID(rng.Intn(500) + 1), ID(rng.Intn(12) + 1), ID(rng.Intn(500) + 1)})
						i++
					}
				}
			}()

			const readers = 8
			errs := make(chan error, readers)
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for !done.Load() {
						sn := g.Snapshot()
						w := sn.Len()
						visible := sn.Triples()
						if len(visible) != w {
							t.Errorf("reader: Triples() returned %d, watermark %d", len(visible), w)
							return
						}
						// The wildcard scan must see exactly the watermark.
						count := 0
						sn.ForEachMatch(Wildcard, Wildcard, Wildcard, func(Triple) bool {
							count++
							return true
						})
						if count != w {
							t.Errorf("reader: wildcard scan saw %d triples, watermark %d", count, w)
							return
						}
						if w == 0 {
							continue
						}
						// Spot-check pattern shapes against a brute-force scan of the
						// pinned view. The writer keeps appending while this runs; a
						// stable snapshot answers identically regardless.
						tr := visible[rng.Intn(len(visible))]
						for _, pat := range patternShapes(tr) {
							want := refCount(visible, pat[0], pat[1], pat[2])
							if got := sn.CountMatch(pat[0], pat[1], pat[2]); got != want {
								t.Errorf("reader: CountMatch(%v)@%d = %d, want %d", pat, w, got, want)
								return
							}
						}
						if !sn.Has(tr) {
							t.Errorf("reader: Has(%v)@%d = false for a visible triple", tr, w)
							return
						}
						// Re-pinning must never shrink: watermarks are monotone.
						if w2 := g.Snapshot().Len(); w2 < w {
							t.Errorf("reader: watermark went backwards: %d then %d", w, w2)
							return
						}
					}
					errs <- nil
				}(int64(100 + r))
			}
			wg.Wait()

			// After the writer stops, a late snapshot sees everything, and an early
			// pinned view re-checked now is still exactly its prefix.
			final := g.Snapshot()
			if final.Len() != g.Len() {
				t.Fatalf("final snapshot %d != graph %d", final.Len(), g.Len())
			}
		})
	}
}

// TestSnapshotOldPinSurvivesGrowth pins one early snapshot, then grows the
// graph by orders of magnitude — one subject/predicate pair's posting lists
// move through the bump chunks into arena chunks of their own, every other
// list relocates a few times, and every slot table rehashes — while a reader
// goroutine keeps interrogating the pin. The old pin must answer all eight
// pattern shapes exactly as its ten-triple prefix does, throughout. Then a
// reader races one large AddAll, which must publish all or nothing.
func TestSnapshotOldPinSurvivesGrowth(t *testing.T) {
	g := NewGraph()
	g.BuildIndexes(AllIndexes) // the pin reads the growing posting lists
	for i := 1; i <= 10; i++ {
		g.Add(Triple{ID(i), 1, ID(i + 1)})
	}
	sn := g.Snapshot()
	want := append([]Triple(nil), sn.Triples()...)
	tabS, tabSP := g.byS.tab.Load(), g.bySP.tab.Load()

	// Probes: inside the prefix, its last triple, and two the writer adds
	// later on keys the prefix also uses.
	probes := []Triple{want[0], want[9], {1, 1, 5000}, {2, 1, 3}}
	checkPin := func() bool {
		for _, tr := range probes {
			for _, pat := range patternShapes(tr) {
				n := refCount(want, pat[0], pat[1], pat[2])
				if got := sn.CountMatch(pat[0], pat[1], pat[2]); got != n {
					t.Errorf("old snapshot CountMatch(%v) = %d, want %d", pat, got, n)
					return false
				}
				if got := len(sn.Match(pat[0], pat[1], pat[2])); got != n {
					t.Errorf("old snapshot Match(%v) = %d rows, want %d", pat, got, n)
					return false
				}
			}
		}
		return true
	}
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !done.Load() && checkPin() {
		}
	}()

	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50000; i++ {
		g.Add(Triple{ID(rng.Intn(3000) + 1), ID(rng.Intn(20) + 1), ID(rng.Intn(3000) + 1)})
		if i < 4*ownChunk {
			g.Add(Triple{1, 1, ID(5000 + i)})
		}
	}
	done.Store(true)
	wg.Wait()

	if n := len(g.bySP.get(key2(1, 1))); n <= 2*ownChunk {
		t.Fatalf("(1,1) posting list has %d entries, want it past two chunks of its own", n)
	}
	if chunks := len(*g.bySP.chunks.Load()); chunks < 4 {
		t.Fatalf("bySP arena has %d chunks, want several", chunks)
	}
	if g.byS.tab.Load() == tabS || g.bySP.tab.Load() == tabSP {
		t.Fatal("slot tables did not rehash")
	}
	if sn.Len() != 10 {
		t.Fatalf("old snapshot watermark moved: %d", sn.Len())
	}
	got := sn.Triples()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("old snapshot triple %d changed: %v != %v", i, got[i], want[i])
		}
	}
	for _, tr := range want {
		if !sn.Has(tr) {
			t.Fatalf("old snapshot lost %v", tr)
		}
	}
	checkPin()

	// One large AddAll commits with one length store. A reader racing it
	// sees the graph either without the batch or with all of it; a pin
	// taken before the insert sees none of it and one taken after sees all
	// of it, on every pattern shape.
	batch := make([]Triple, 40000)
	for i := range batch {
		batch[i] = Triple{ID(rng.Intn(8000) + 1), ID(rng.Intn(20) + 1), ID(rng.Intn(8000) + 1)}
	}
	batch = append(batch, batch[:100]...) // duplicates within the batch
	batch = append(batch, want...)        // and of triples already present
	fresh := map[Triple]struct{}{}
	for _, tr := range batch {
		if !g.Has(tr) {
			fresh[tr] = struct{}{}
		}
	}
	pre := g.Snapshot()
	before, after := pre.Len(), pre.Len()+len(fresh)
	var probe []Triple
	for _, tr := range batch[:len(batch)/2] {
		if _, ok := fresh[tr]; ok && len(probe) < 8 && !slices.Contains(probe, tr) {
			probe = append(probe, tr)
		}
	}
	preCount := map[[3]ID]int{}
	for _, tr := range probe {
		for _, pat := range patternShapes(tr) {
			preCount[pat] = pre.CountMatch(pat[0], pat[1], pat[2])
		}
	}
	done.Store(false)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !done.Load() {
			cur := g.Snapshot()
			if w := cur.Len(); w != before && w != after {
				t.Errorf("reader pinned %d triples mid-insert, want %d or %d", w, before, after)
				return
			}
			for _, tr := range probe {
				if cur.Has(tr) != (cur.Len() == after) {
					t.Errorf("pin of %d triples: Has(%v) = %v", cur.Len(), tr, cur.Has(tr))
					return
				}
				if pre.Has(tr) {
					t.Errorf("pre-insert pin sees %v", tr)
					return
				}
			}
			if !checkPin() {
				return
			}
		}
	}()
	if n := g.AddAll(batch); n != len(fresh) {
		t.Errorf("AddAll added %d, want %d", n, len(fresh))
	}
	done.Store(true)
	wg.Wait()
	post := g.Snapshot()
	if pre.Len() != before || post.Len() != after {
		t.Fatalf("pins hold %d and %d triples, want %d and %d", pre.Len(), post.Len(), before, after)
	}
	for tr := range fresh {
		if pre.Has(tr) || !post.Has(tr) {
			t.Fatalf("%v: pre-insert pin Has = %v, post-insert pin Has = %v", tr, pre.Has(tr), post.Has(tr))
		}
	}
	for _, tr := range probe {
		for _, pat := range patternShapes(tr) {
			if got := pre.CountMatch(pat[0], pat[1], pat[2]); got != preCount[pat] {
				t.Fatalf("pre-insert pin CountMatch(%v) = %d, want %d", pat, got, preCount[pat])
			}
			if got, want := post.CountMatch(pat[0], pat[1], pat[2]), len(g.Match(pat[0], pat[1], pat[2])); got != want {
				t.Fatalf("post-insert pin CountMatch(%v) = %d, graph has %d", pat, got, want)
			}
		}
	}
}
