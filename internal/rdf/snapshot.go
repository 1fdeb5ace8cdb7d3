package rdf

// Snapshot is an epoch-pinned, zero-copy, read-only view of a Graph: the
// MVCC read side of the store. Taking one costs two atomic loads (the log
// watermark and the log array); no triples or posting lists are copied.
//
// A snapshot pinned at watermark W sees exactly the first W triples of the
// log — never more, never fewer — no matter how far the writer has appended
// since. Pattern matches run over the same posting lists the writer is
// extending, pinned per lookup at W: posting lists grow in log order, so
// "the list as of W" is a prefix. A list whose last offset is below W is
// its own prefix, found in O(1); only a pin older than the list's tail
// binary-searches for it, in O(log n). Either way nothing is allocated, and
// the "pinned posting-list length" is computed, not stored, which is what
// keeps Snapshot itself small.
//
// Snapshots may be taken from any goroutine at any time while a single
// writer mutates the graph, and any number of snapshots may be read
// concurrently. A snapshot never blocks the writer and holds no lock; it
// does pin the log array it captured, so an extremely long-lived snapshot
// keeps at most one superseded backing array alive.
//
// Which index answers a pattern is decided in one place, Graph.access, from
// the coverage the call loads; the graph's own matches and counts take the
// same path through a snapshot of the whole log. The fully-bound case
// avoids the writer's private dedup table: it scans the shorter of the
// pinned bySP and byPO lists that cover the predicate.
//
// An index the writer has not built for the pattern's predicate
// (Graph.BuildIndexes, Graph.BuildScope) is never read: a pattern that needs
// it scans the pinned log, which gives the same triples in the same order
// and, for CountMatch, the same count, because a posting list is exactly its
// key's log offsets in log order, tombstoned ones included. A build racing
// the snapshot publishes its coverage only after its last posting, and the
// snapshot cuts every list at its watermark, so it answers the same
// whichever coverage it reads.
//
// Deletions pin the same way: the snapshot captures the graph's tombstone
// set (an immutable bitset, see tombstone.go) when it is taken, and every
// match filters through that pinned set. A snapshot taken before a Delete
// keeps the older set and keeps answering its original epoch exactly — a
// later deletion can never reach into an already-pinned view. The set is
// loaded before the log watermark, so a concurrently-taken snapshot may at
// worst lag one delete batch behind its log cut, never run ahead of it; the
// serving layer sidesteps even that by publishing snapshots from the writer
// goroutine between batches.
type Snapshot struct {
	g    *Graph
	dead *tombSet // pinned tombstone set; nil = no deletions at pin time
	log  []Triple // pinned log prefix; len(log) is the watermark
}

// Snapshot pins the graph's current watermark and returns the read view.
// Safe to call from any goroutine concurrently with the single writer.
func (g *Graph) Snapshot() Snapshot {
	return Snapshot{g: g, dead: g.dead.Load(), log: g.log.view()}
}

// Len reports the number of triples visible in the snapshot: the pinned log
// prefix minus the tombstones pinned with it.
func (s Snapshot) Len() int {
	return len(s.log) - s.dead.countBelow(uint32(len(s.log)))
}

// Watermark returns the log offset the snapshot is pinned at — the epoch of
// the MVCC view. Snapshots with equal watermarks over the same graph and
// equal pinned tombstone sets are identical views.
func (s Snapshot) Watermark() int { return len(s.log) }

// Dead returns the number of tombstoned offsets below the watermark.
func (s Snapshot) Dead() int { return s.dead.countBelow(uint32(len(s.log))) }

// ProvEnabled reports whether the snapshotted graph records provenance —
// the concurrent-safe form of Graph.Prov() != nil (the prov column is fixed
// at graph construction, so reading it through the pinned graph pointer
// never races the writer).
func (s Snapshot) ProvEnabled() bool { return s.g.prov != nil }

// Triples returns the visible triples. With no pinned tombstones this is
// the pinned log prefix itself — a read-only view, valid forever, that the
// caller must not modify; with tombstones it is a fresh filtered copy.
func (s Snapshot) Triples() []Triple {
	if s.dead.count() == 0 {
		return s.log
	}
	out := make([]Triple, 0, s.Len())
	for i, t := range s.log {
		if !s.dead.has(uint32(i)) {
			out = append(out, t)
		}
	}
	return out
}

// cutOffsets returns the prefix of v whose offsets are below w. Posting
// lists grow in log-offset order, so this is the pinned view of the list. A
// list whose last offset is below w is the whole answer, so only a pin older
// than the list's tail binary-searches: the writer and a snapshot of the
// current log never do.
func cutOffsets(v []uint32, w uint32) []uint32 {
	if len(v) == 0 || v[len(v)-1] < w {
		return v
	}
	lo, hi := 0, len(v)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if v[mid] < w {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return v[:lo]
}

// cutEntries is cutOffsets for (term, offset) pair postings.
func cutEntries(v []spEntry, w uint32) []spEntry {
	if len(v) == 0 || v[len(v)-1].Off < w {
		return v
	}
	lo, hi := 0, len(v)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if v[mid].Off < w {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return v[:lo]
}

// postings returns the pinned list of log offsets that a reads, one of
// viaS, viaP, viaO and viaSO: for viaSO the shorter of byS(sub) and byO(o),
// either of which holds every match.
func (s Snapshot) postings(a access, sub, p, o ID) []uint32 {
	w := uint32(len(s.log))
	switch a {
	case viaS:
		return cutOffsets(s.g.byS.get(key1(sub)), w)
	case viaP:
		return cutOffsets(s.g.byP.get(key1(p)), w)
	case viaO:
		return cutOffsets(s.g.byO.get(key1(o)), w)
	}
	sl, ol := cutOffsets(s.g.byS.get(key1(sub)), w), cutOffsets(s.g.byO.get(key1(o)), w)
	if len(ol) < len(sl) {
		return ol
	}
	return sl
}

// Has reports whether t is visible in the snapshot (see offsetOf).
func (s Snapshot) Has(t Triple) bool {
	_, ok := s.offsetOf(s.g.access(t.S, t.P, t.O, false), t)
	return ok
}

// offsetOf resolves t to its log offset along a, which access picked for t
// without the writer's dedup table: it scans the shorter of the pinned
// bySP and byPO lists a names, which carry the offset column, or the pinned
// log. ok is false when t is not visible.
func (s Snapshot) offsetOf(a access, t Triple) (uint32, bool) {
	if a == viaScan {
		noteScan(t.P)
		for i, x := range s.log {
			if x == t && !s.dead.has(uint32(i)) {
				return uint32(i), true
			}
		}
		return 0, false
	}
	w := uint32(len(s.log))
	var sp, po []spEntry
	if a != viaPO {
		sp = cutEntries(s.g.bySP.get(key2(t.S, t.P)), w)
	}
	if a != viaSP {
		po = cutEntries(s.g.byPO.get(key2(t.P, t.O)), w)
	}
	es, term := sp, t.O
	if a == viaPO || a == viaSPPO && len(po) < len(sp) {
		es, term = po, t.S
	}
	for _, e := range es {
		if e.Term == term && !s.dead.has(e.Off) {
			return e.Off, true
		}
	}
	return 0, false
}

// ForEachMatch calls fn for every visible triple matching the pattern, where
// Wildcard in any position matches all terms. Iteration stops early if fn
// returns false; order is log insertion order. A pattern whose index did not
// cover it when the call loaded its coverage is answered by a scan of the
// pinned log, with the same triples in the same order. Safe concurrently with the
// writer and with other readers.
//
//powl:allocfree the serve read path probes here per query row
func (s Snapshot) ForEachMatch(sub, p, o ID, fn func(Triple) bool) {
	s.match(s.g.access(sub, p, o, false), sub, p, o, fn)
}

// match is ForEachMatch along a, the path access picked for the pattern.
func (s Snapshot) match(a access, sub, p, o ID, fn func(Triple) bool) {
	w := uint32(len(s.log))
	switch {
	case sub != Wildcard && p != Wildcard && o != Wildcard:
		t := Triple{sub, p, o}
		if _, ok := s.offsetOf(a, t); ok {
			fn(t)
		}
	case a == viaSP:
		for _, e := range cutEntries(s.g.bySP.get(key2(sub, p)), w) {
			if !s.dead.has(e.Off) && !fn(Triple{sub, p, e.Term}) {
				return
			}
		}
	case a == viaPO:
		for _, e := range cutEntries(s.g.byPO.get(key2(p, o)), w) {
			if !s.dead.has(e.Off) && !fn(Triple{e.Term, p, o}) {
				return
			}
		}
	case a == viaScan || a == viaLog:
		noteScan(p)
		scanMatch(s.log, s.dead, sub, p, o, fn)
	default:
		for _, off := range s.postings(a, sub, p, o) {
			if t := s.log[off]; matches(t, sub, p, o) && !s.dead.has(off) && !fn(t) {
				return
			}
		}
	}
}

// Match returns all visible triples matching the pattern as a fresh slice.
func (s Snapshot) Match(sub, p, o ID) []Triple {
	var out []Triple
	s.ForEachMatch(sub, p, o, func(t Triple) bool {
		out = append(out, t)
		return true
	})
	return out
}

// CountMatch returns the number of visible triples matching the pattern
// without materializing them: the length of the pinned posting list for
// every index-backed shape but (s,·,o), which counts the matches in the
// shorter of its two lists, and a scan of the pinned log with the same
// result for a pattern whose index does not cover it. With pinned
// tombstones the list lengths become upper bounds, the same soundness
// contract as Graph.CountMatch (never zero for a nonempty extent); the
// fully-bound, (s,·,o), and unbound shapes stay exact.
//
//powl:allocfree query-planner selectivity ranking per join level
func (s Snapshot) CountMatch(sub, p, o ID) int {
	return s.count(s.g.access(sub, p, o, false), sub, p, o)
}

// count is CountMatch along a, the path access picked for the pattern.
func (s Snapshot) count(a access, sub, p, o ID) int {
	w := uint32(len(s.log))
	switch {
	case a == viaLog:
		return s.Len()
	case sub != Wildcard && o != Wildcard: // the exact shapes
		n := 0
		s.match(a, sub, p, o, func(Triple) bool {
			n++
			return true
		})
		return n
	case a == viaSP:
		return len(cutEntries(s.g.bySP.get(key2(sub, p)), w))
	case a == viaPO:
		return len(cutEntries(s.g.byPO.get(key2(p, o)), w))
	case a == viaScan:
		noteScan(p)
		return scanCount(s.log, sub, p, o)
	}
	return len(s.postings(a, sub, p, o))
}
