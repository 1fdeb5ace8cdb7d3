package rdf

// Snapshot is an epoch-pinned, zero-copy, read-only view of a Graph: the
// MVCC read side of the store. Taking one costs two atomic loads (the log
// watermark and the log array); no triples or posting lists are copied.
//
// A snapshot pinned at watermark W sees exactly the first W triples of the
// log — never more, never fewer — no matter how far the writer has appended
// since. Pattern matches run over the same posting lists the writer is
// extending, pinned per lookup by binary-searching the list's log-offset
// column down to W: posting lists grow in log order, so "the list as of W"
// is a prefix, found in O(log n) with no allocation. That prefix is the
// "pinned posting-list length" — it is computed, not stored, which is what
// keeps Snapshot itself two words wide.
//
// Snapshots may be taken from any goroutine at any time while a single
// writer mutates the graph, and any number of snapshots may be read
// concurrently. A snapshot never blocks the writer and holds no lock; it
// does pin the log array it captured, so an extremely long-lived snapshot
// keeps at most one superseded backing array alive.
//
// The fully-bound and (s,·,o) cases deliberately avoid the writer's private
// dedup table: they scan the shorter of the two relevant pinned posting
// prefixes instead.
//
// An index the writer has not built (Graph.BuildIndexes) is never read: a
// pattern that needs it scans the pinned log, which gives the same triples
// in the same order and, for CountMatch, the same count, because a posting
// list is exactly its key's log offsets in log order, tombstoned ones
// included. A build racing the snapshot publishes its flag only after its
// last posting, and the snapshot cuts every list at its watermark, so it
// answers the same whichever side of the flag it reads.
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
// lists grow in log-offset order, so this is the pinned view of the list.
func cutOffsets(v []uint32, w uint32) []uint32 {
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

// Has reports whether t is visible in the snapshot (see offsetOf).
func (s Snapshot) Has(t Triple) bool {
	_, ok := s.offsetOf(t)
	return ok
}

// offsetOf resolves t to its log offset without touching the writer's dedup
// table: it scans the shorter of the two pinned two-bound posting prefixes,
// which carry the offset column, or the pinned log while either index is
// not built. ok is false when t is not visible.
func (s Snapshot) offsetOf(t Triple) (uint32, bool) {
	w := uint32(len(s.log))
	if !s.g.bySP.built.Load() || !s.g.byPO.built.Load() {
		for i, x := range s.log {
			if x == t && !s.dead.has(uint32(i)) {
				return uint32(i), true
			}
		}
		return 0, false
	}
	sp := cutEntries(s.g.bySP.get(key2(t.S, t.P)), w)
	po := cutEntries(s.g.byPO.get(key2(t.P, t.O)), w)
	if len(sp) <= len(po) {
		for _, e := range sp {
			if e.Term == t.O && !s.dead.has(e.Off) {
				return e.Off, true
			}
		}
	} else {
		for _, e := range po {
			if e.Term == t.S && !s.dead.has(e.Off) {
				return e.Off, true
			}
		}
	}
	return 0, false
}

// ForEachMatch calls fn for every visible triple matching the pattern, where
// Wildcard in any position matches all terms. Iteration stops early if fn
// returns false; order is log insertion order. A pattern whose index was not
// built when the call loaded its flag is answered by a scan of the pinned
// log, with the same triples in the same order. Safe concurrently with the
// writer and with other readers.
//
//powl:allocfree the serve read path probes here per query row
func (s Snapshot) ForEachMatch(sub, p, o ID, fn func(Triple) bool) {
	w := uint32(len(s.log))
	switch {
	case sub != Wildcard && p != Wildcard && o != Wildcard:
		t := Triple{sub, p, o}
		if s.Has(t) {
			fn(t)
		}
	case sub != Wildcard && p != Wildcard && s.g.bySP.built.Load():
		for _, e := range cutEntries(s.g.bySP.get(key2(sub, p)), w) {
			if s.dead.has(e.Off) {
				continue
			}
			if !fn(Triple{sub, p, e.Term}) {
				return
			}
		}
	case p != Wildcard && o != Wildcard && s.g.byPO.built.Load():
		for _, e := range cutEntries(s.g.byPO.get(key2(p, o)), w) {
			if s.dead.has(e.Off) {
				continue
			}
			if !fn(Triple{e.Term, p, o}) {
				return
			}
		}
	case sub != Wildcard && o != Wildcard && p == Wildcard && s.g.byS.built.Load() && s.g.byO.built.Load():
		sl := cutOffsets(s.g.byS.get(key1(sub)), w)
		ol := cutOffsets(s.g.byO.get(key1(o)), w)
		if len(sl) <= len(ol) {
			for _, off := range sl {
				if s.dead.has(off) {
					continue
				}
				if t := s.log[off]; t.O == o && !fn(t) {
					return
				}
			}
		} else {
			for _, off := range ol {
				if s.dead.has(off) {
					continue
				}
				if t := s.log[off]; t.S == sub && !fn(t) {
					return
				}
			}
		}
	case sub != Wildcard && p == Wildcard && o == Wildcard && s.g.byS.built.Load():
		matchOffsets(s.log, s.dead, cutOffsets(s.g.byS.get(key1(sub)), w), fn)
	case sub == Wildcard && p != Wildcard && o == Wildcard && s.g.byP.built.Load():
		matchOffsets(s.log, s.dead, cutOffsets(s.g.byP.get(key1(p)), w), fn)
	case sub == Wildcard && p == Wildcard && o != Wildcard && s.g.byO.built.Load():
		matchOffsets(s.log, s.dead, cutOffsets(s.g.byO.get(key1(o)), w), fn)
	default:
		scanMatch(s.log, s.dead, sub, p, o, fn)
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
// without materializing them: O(log n) for every index-backed shape (the
// binary-searched pinned prefix length), a shorter-side scan for (s,·,o),
// and a scan of the pinned log with the same result for a pattern whose
// index is not built. With pinned tombstones the index-backed shapes become
// upper bounds, the same soundness contract as Graph.CountMatch (never zero
// for a nonempty extent); the fully-bound, (s,·,o), and unbound shapes stay
// exact.
//
//powl:allocfree query-planner selectivity ranking per join level
func (s Snapshot) CountMatch(sub, p, o ID) int {
	w := uint32(len(s.log))
	switch {
	case sub != Wildcard && p != Wildcard && o != Wildcard:
		if s.Has(Triple{sub, p, o}) {
			return 1
		}
		return 0
	case sub != Wildcard && p != Wildcard && s.g.bySP.built.Load():
		return len(cutEntries(s.g.bySP.get(key2(sub, p)), w))
	case p != Wildcard && o != Wildcard && s.g.byPO.built.Load():
		return len(cutEntries(s.g.byPO.get(key2(p, o)), w))
	case sub != Wildcard && o != Wildcard && p == Wildcard:
		if !s.g.byS.built.Load() || !s.g.byO.built.Load() {
			return scanCount(s.log, s.dead, sub, p, o)
		}
		n := 0
		sl := cutOffsets(s.g.byS.get(key1(sub)), w)
		ol := cutOffsets(s.g.byO.get(key1(o)), w)
		if len(sl) <= len(ol) {
			for _, off := range sl {
				if s.log[off].O == o && !s.dead.has(off) {
					n++
				}
			}
		} else {
			for _, off := range ol {
				if s.log[off].S == sub && !s.dead.has(off) {
					n++
				}
			}
		}
		return n
	case sub != Wildcard && p == Wildcard && o == Wildcard && s.g.byS.built.Load():
		return len(cutOffsets(s.g.byS.get(key1(sub)), w))
	case sub == Wildcard && p != Wildcard && o == Wildcard && s.g.byP.built.Load():
		return len(cutOffsets(s.g.byP.get(key1(p)), w))
	case sub == Wildcard && p == Wildcard && o != Wildcard && s.g.byO.built.Load():
		return len(cutOffsets(s.g.byO.get(key1(o)), w))
	case sub == Wildcard && p == Wildcard && o == Wildcard:
		return s.Len()
	default:
		return scanCount(s.log, nil, sub, p, o)
	}
}
