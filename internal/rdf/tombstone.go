package rdf

import (
	"math/bits"
	"sort"
)

// Deletion support: tombstone epochs over the append-only log.
//
// The log itself never shrinks and offsets are never reused — that is what
// keeps every offset-keyed structure (posting lists, provenance premises,
// pinned snapshots) valid forever. A deletion instead marks the triple's log
// offset dead in a tombSet: an immutable bitset published through an atomic
// pointer, exactly like the posting tables. Readers pin the pointer once
// (Snapshot captures it next to the log watermark) and filter matches
// through it; a snapshot taken before a Delete keeps the older (possibly
// nil) set and therefore keeps answering its original epoch bit-for-bit.
//
// A deleted triple may be re-added later; it then occupies a fresh log
// offset while the dead offset stays dead, so "the triple" and "the offset"
// diverge deliberately: liveness questions about offsets use tombSet.has,
// liveness questions about triples use the dedup table (Graph.Has), which
// Delete prunes.
//
// The nil tombSet is the fast path: a graph that has never seen a deletion
// pays one pointer load per match call and nothing per candidate.

// tombSet is an immutable deleted-offset bitset. Published whole via
// Graph.dead; never mutated after publication (copy-on-write per Delete
// batch), so readers need no further synchronization.
type tombSet struct {
	bits []uint64
	n    int // set bits — the dead-offset count
}

// has reports whether off is tombstoned. Nil-safe: a nil set has no dead
// offsets.
func (t *tombSet) has(off uint32) bool {
	if t == nil {
		return false
	}
	w := int(off >> 6)
	return w < len(t.bits) && t.bits[w]>>(off&63)&1 != 0
}

// count returns the number of dead offsets. Nil-safe.
func (t *tombSet) count() int {
	if t == nil {
		return 0
	}
	return t.n
}

// countBelow returns the number of dead offsets strictly below w — the
// correction a snapshot pinned at watermark w applies to its visible length.
func (t *tombSet) countBelow(w uint32) int {
	if t == nil {
		return 0
	}
	n := 0
	full := int(w >> 6)
	if full > len(t.bits) {
		full = len(t.bits)
	}
	for _, word := range t.bits[:full] {
		n += bits.OnesCount64(word)
	}
	if rem := w & 63; rem != 0 && full < len(t.bits) {
		n += bits.OnesCount64(t.bits[full] & (1<<rem - 1))
	}
	return n
}

// Delete tombstones every triple of ts that is currently live and returns
// the number deleted. Writer-only. The new tombstone set is published
// atomically in one step per batch — before the dedup entries are pruned —
// so a concurrent Snapshot observes either none or all of the batch's
// deletions, and a crash between the two steps leaves the published state
// correct (RepairDedup reconciles the writer-private table).
func (g *Graph) Delete(ts []Triple) int {
	if len(ts) == 0 {
		return 0
	}
	offs := make([]uint32, 0, len(ts))
	for _, t := range ts {
		if off, ok := g.Offset(t); ok {
			offs = append(offs, off)
		}
	}
	return g.DeleteOffsets(offs)
}

// DeleteOffsets tombstones the given log offsets and returns the number
// newly tombstoned. Writer-only. Offsets already dead (or out of range) are
// skipped, so the call is idempotent. Callers iterating a map to build offs
// must sort first if anything downstream is order-sensitive; DeleteOffsets
// itself is order-insensitive.
func (g *Graph) DeleteOffsets(offs []uint32) int {
	if len(offs) == 0 {
		return 0
	}
	old := g.dead.Load()
	logv := g.log.view()
	bits := make([]uint64, (len(logv)+63)/64)
	if old != nil {
		copy(bits, old.bits)
	}
	deleted := 0
	for _, off := range offs {
		if int(off) >= len(logv) {
			continue
		}
		w, b := off>>6, uint64(1)<<(off&63)
		if bits[w]&b != 0 {
			continue
		}
		bits[w] |= b
		deleted++
	}
	if deleted == 0 {
		return 0
	}
	g.ensureSeen()
	g.dead.Store(&tombSet{bits: bits, n: old.count() + deleted})
	// Prune the dedup table after publication so the triples can be
	// re-added at fresh offsets. remove matches the offset, not the triple:
	// if a triple was already deleted and re-added, its entry names the
	// newer live offset and survives.
	for _, off := range offs {
		if int(off) < len(logv) {
			g.seen.remove(logv, off)
		}
	}
	return deleted
}

// Dead returns the number of tombstoned log offsets. Safe from any
// goroutine.
func (g *Graph) Dead() int { return g.dead.Load().count() }

// LiveLen returns the number of live (non-tombstoned) triples. Safe from
// any goroutine. Len() stays the raw log length — the watermark the MVCC
// and shipping layers are built on.
func (g *Graph) LiveLen() int { return g.log.length() - g.Dead() }

// IsLiveOffset reports whether the triple at log offset off is live.
func (g *Graph) IsLiveOffset(off uint32) bool {
	return int(off) < g.log.length() && !g.dead.Load().has(off)
}

// DeadTriples returns the tombstoned triples, sorted, for deterministic
// persistence (the fscluster checkpoint sidecar). A triple deleted and
// later re-added is live and therefore excluded. Writer-only (consults the
// dedup table).
func (g *Graph) DeadTriples() []Triple {
	dead := g.dead.Load()
	if dead.count() == 0 {
		return nil
	}
	var out []Triple
	for i, t := range g.log.view() {
		if dead.has(uint32(i)) && !g.Has(t) {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// IsDerivedOffset reports whether the triple at log offset off was inserted
// through a derived path (AddDerived/AddWithLineage) rather than asserted.
// Maintained independently of the provenance side-column so the
// provenance-off deletion fallback can still separate base facts from
// inferences. Writer-only.
func (g *Graph) IsDerivedOffset(off uint32) bool {
	w := int(off >> 6)
	return w < len(g.derived) && g.derived[w]>>(off&63)&1 != 0
}

// AssertedTriples returns the live asserted (non-derived) triples in log
// order — the base facts a from-scratch rematerialization starts from.
// Writer-only.
func (g *Graph) AssertedTriples() []Triple {
	dead := g.dead.Load()
	var out []Triple
	for i, t := range g.log.view() {
		off := uint32(i)
		if !dead.has(off) && !g.IsDerivedOffset(off) {
			out = append(out, t)
		}
	}
	return out
}

// RepairDedup rebuilds the writer-private dedup table from the published log
// and tombstone set. The published (reader-visible) state is always
// consistent on its own; the table is the only structure a writer-goroutine
// panic can leave half-updated, and this restores it. Writer-only.
func (g *Graph) RepairDedup() {
	g.lazySeen = false
	g.seen.rebuild(g.log.view(), g.dead.Load(), g.LiveLen())
}

// Compact rewrites the graph without its dead triples and returns the fresh
// copy: a new log holding only live triples, posting lists rebuilt in bulk
// for the indexes and predicates g covers, no tombstones. Provenance
// survives with premise offsets remapped to the new log; a premise that is
// itself dead (possible only transiently, between a retraction's
// overdelete and its rederivation) degrades to NoPremise.
//
// The receiver is left untouched, so snapshots pinned on it remain valid
// forever; the owner swaps the fresh graph in (a single pointer publish in
// the serving layer) and the old epoch chain is garbage-collected once the
// last pinned snapshot is dropped. Writer-only on g.
//
//powl:ignore degradejournal rdf sits below obs; the NoPremise remap is a transient data property of the copy, and the serving layer journals every compaction it triggers
func (g *Graph) Compact() *Graph {
	dead := g.dead.Load()
	logv := g.log.view()
	live := len(logv) - dead.count()
	c := NewGraphCap(live)
	// The copy gets the coverage g has, built in bulk once the log is in.
	scope := g.Scope()
	c.reserveKeys(g, g.built())
	var remap []uint32
	if g.prov != nil {
		c.prov = g.prov.cloneNames()
		c.prov.recs.grow(live)
		remap = make([]uint32, len(logv))
		for i := range remap {
			remap[i] = NoPremise
		}
	}
	for i, t := range logv {
		off := uint32(i)
		if dead.has(off) {
			continue
		}
		d := baseDerivation()
		if g.prov != nil {
			d = g.prov.At(off)
			if d.IsDerived() {
				for j, p := range d.Prem {
					if p == NoPremise || int(p) >= len(remap) {
						d.Prem[j] = NoPremise
						continue
					}
					// Premises precede their consequence in the log, so the
					// remap entry is already final here.
					d.Prem[j] = remap[p]
				}
			}
			remap[off] = uint32(c.log.length())
		}
		c.insert([]Triple{t}, d, g.IsDerivedOffset(off))
	}
	c.buildScope(scope)
	return c
}
