package rdf

import "sync/atomic"

// Provenance is a structure-of-arrays side-column to the triple log: one
// fixed-size Derivation record per log offset, appended by the same single
// writer that appends the triple, published under the same MVCC discipline.
// The invariant tying the two logs together is publication order: an insert
// publishes its provenance records *before* the triple-log length store that
// commits the watermark, so at every instant
//
//	prov.Len() >= log.length()
//
// and a Snapshot pinned at watermark W can read records [0, W) without any
// coordination — they were complete before W was published. Records are
// never rewritten (first derivation wins), so the side-column inherits the
// element-immutability argument of index.go wholesale.
//
// A record is ~16 bytes: rule id (uint16), round (uint16), and up to three
// premise log-offsets (3x uint32). Premises are stored in body-atom order of
// the compiled rule, truncated at three — enough for every OWL-Horst rule
// shape; the long intersectionOf bodies keep their first three atoms, which
// still pins the derivation to its rule and lets Explain recurse.

// NoRule marks a base (asserted, not derived) triple's rule column, and
// NoPremise an absent premise slot.
const (
	NoRule    = ^uint16(0)
	NoPremise = ^uint32(0)
)

// Derivation is the per-offset provenance record.
type Derivation struct {
	Rule  uint16    // index into the Prov rule-name table, or NoRule
	Round uint16    // semi-naive round the derivation fired in (0 if unknown)
	Prem  [3]uint32 // premise log offsets in body-atom order, NoPremise-padded
}

// baseDerivation is the record written for asserted triples.
func baseDerivation() Derivation {
	return Derivation{Rule: NoRule, Prem: [3]uint32{NoPremise, NoPremise, NoPremise}}
}

// IsDerived reports whether the record names a rule.
func (d Derivation) IsDerived() bool { return d.Rule != NoRule }

// Prov holds the provenance side-column plus the rule-name table that maps
// the compact uint16 rule ids back to compiled-rule names. Rule names are
// interned by the writer and published copy-on-write, so readers resolving
// ids from a pinned snapshot never race the writer's interning.
type Prov struct {
	recs   alog[Derivation] // one record per log offset, published like the triple log
	names  atomic.Pointer[[]string]
	byName map[string]uint16 // writer-only
	// alt records at most one alternate derivation per log offset: the
	// first duplicate firing the engines observed for an already-present
	// triple. First derivation still wins the primary record (immutable);
	// the alternate is the counting-style fast path DRed consults — a
	// triple whose alternate's premises all survive a deletion needs no
	// rederivation join. Writer-only, lazily allocated, best-effort (it is
	// a cache: Retract verifies premise liveness before trusting it).
	alt map[uint32]Derivation
}

// RuleID interns name and returns its compact id. Writer-only. Returns
// NoRule if the 16-bit id space is exhausted (the record then degrades to
// "derived by an unnamed rule").
//
//powl:ignore degradejournal rdf sits below obs; id-space exhaustion is a data property surfaced as NoRule, which Explain renders and callers may journal
func (p *Prov) RuleID(name string) uint16 {
	if id, ok := p.byName[name]; ok {
		return id
	}
	old := p.names.Load()
	var cur []string
	if old != nil {
		cur = *old
	}
	if len(cur) >= int(NoRule) {
		return NoRule
	}
	id := uint16(len(cur))
	next := make([]string, len(cur)+1)
	copy(next, cur)
	next[id] = name
	p.names.Store(&next)
	p.byName[name] = id
	return id
}

// cloneNames returns a Prov with a private copy of p's rule-name table and
// no records. Writer-only on p.
func (p *Prov) cloneNames() *Prov {
	cp := &Prov{byName: make(map[string]uint16, len(p.byName))}
	if names := p.names.Load(); names != nil {
		nn := append([]string(nil), *names...)
		cp.names.Store(&nn)
		for id, name := range nn {
			cp.byName[name] = uint16(id)
		}
	}
	return cp
}

// RuleName resolves a rule id to its name. Safe from any goroutine; returns
// "" for NoRule or an unknown id.
func (p *Prov) RuleName(id uint16) string {
	if p == nil || id == NoRule {
		return ""
	}
	names := p.names.Load()
	if names == nil || int(id) >= len(*names) {
		return ""
	}
	return (*names)[id]
}

// RuleNames returns the published rule-name table (index = rule id). Safe
// from any goroutine; the returned slice is immutable.
func (p *Prov) RuleNames() []string {
	if p == nil {
		return nil
	}
	names := p.names.Load()
	if names == nil {
		return nil
	}
	return *names
}

// Len returns the number of published records. Safe from any goroutine.
func (p *Prov) Len() int {
	if p == nil {
		return 0
	}
	return p.recs.length()
}

// At returns the record for log offset off. Safe from any goroutine as long
// as off is below a watermark the caller pinned (prov length >= watermark by
// the publication-order invariant).
func (p *Prov) At(off uint32) Derivation {
	v := p.recs.view()
	if int(off) >= len(v) {
		return baseDerivation()
	}
	return v[off]
}

// RecordAlt stores an alternate derivation for the triple at log offset off.
// First alternate wins; records equal to nothing are not validated here —
// consumers must check premise liveness themselves. Writer-only.
func (p *Prov) RecordAlt(off uint32, d Derivation) {
	if p == nil || !d.IsDerived() {
		return
	}
	if _, ok := p.alt[off]; ok {
		return
	}
	if p.alt == nil {
		p.alt = map[uint32]Derivation{}
	}
	p.alt[off] = d
}

// AltAt returns the alternate derivation recorded for off, if any.
// Writer-only.
func (p *Prov) AltAt(off uint32) (Derivation, bool) {
	if p == nil {
		return Derivation{}, false
	}
	d, ok := p.alt[off]
	return d, ok
}

// EnableProv switches provenance recording on and returns the side-column.
// Idempotent. Writer-only, and must be called before the graph is shared
// with concurrent readers: enabling backfills one base record per existing
// triple, and that backfill is not covered by the snapshot cut argument.
// Triples added before enabling read as asserted (NoRule).
func (g *Graph) EnableProv() *Prov {
	if g.prov != nil {
		return g.prov
	}
	p := &Prov{byName: make(map[string]uint16)}
	n := g.log.length()
	p.recs.grow(n)
	for i := 0; i < n; i++ {
		p.recs.put(i, baseDerivation())
	}
	p.recs.publish(n)
	g.prov = p
	return p
}

// ForgetDerivations makes every triple of g read as asserted: it drops the
// provenance side-column, recorded rule names included, and the derived
// marks. What is left is a base a materialization can start from as if each
// triple had been added with Add. Writer-only, and like EnableProv it must
// run before the graph is shared with concurrent readers.
func (g *Graph) ForgetDerivations() {
	g.prov = nil
	g.derived = nil
}

// Prov returns the provenance side-column, or nil when recording is off.
func (g *Graph) Prov() *Prov { return g.prov }

// Offset returns the log offset of t, if present. Writer-only (dedup table).
func (g *Graph) Offset(t Triple) (uint32, bool) {
	return g.seen.find(g.log.view(), t)
}

// AddDerived inserts t with an explicit derivation record and reports
// whether it was newly added. With provenance off it is exactly Add.
// Writer-only. First derivation wins: re-deriving an existing triple does
// not rewrite its record (records below the watermark are immutable).
func (g *Graph) AddDerived(t Triple, d Derivation) bool {
	return g.insert([]Triple{t}, d, true) == 1
}

// AddDerivedAll is AddDerived for every triple of ts in one range insert:
// the new triples are marked derived and, with provenance on, each records
// d. It returns the number newly added; they are TriplesSince the length
// before the call, in the order of ts. Writer-only.
func (g *Graph) AddDerivedAll(ts []Triple, d Derivation) int {
	return g.insert(ts, d, true)
}

// Lineage is the transportable form of one derivation: self-contained (it
// carries the derived triple and its premise triples by value, not by log
// offset), so it survives shipping to a worker whose log has different
// offsets. Premises are in body-atom order.
type Lineage struct {
	T     Triple
	Rule  string
	Round uint16
	Prem  []Triple
}

// LineageOf resolves t's derivation record into transportable form.
// Writer-only (offset lookup via the dedup table). ok is false when t is
// absent or asserted rather than derived.
func (g *Graph) LineageOf(t Triple) (Lineage, bool) {
	off, ok := g.Offset(t)
	if !ok || g.prov == nil {
		return Lineage{}, false
	}
	return g.lineageAt(t, off)
}

// lineageAt builds the Lineage for the triple at log offset off.
func (g *Graph) lineageAt(t Triple, off uint32) (Lineage, bool) {
	d := g.prov.At(off)
	if !d.IsDerived() {
		return Lineage{}, false
	}
	lin := Lineage{T: t, Rule: g.prov.RuleName(d.Rule), Round: d.Round}
	log := g.log.view()
	for _, p := range d.Prem {
		if p == NoPremise || int(p) >= len(log) {
			continue
		}
		lin.Prem = append(lin.Prem, log[p])
	}
	return lin, true
}

// AddWithLineage inserts t, translating a shipped Lineage into a local
// derivation record: the rule name is interned locally and premise triples
// are resolved to local log offsets (premises not yet present record as
// NoPremise — the shipper orders deltas so premises normally land first).
// Reports whether t was newly added; an existing triple keeps its original
// record (first wins). Writer-only. With provenance off it is exactly Add.
func (g *Graph) AddWithLineage(t Triple, lin Lineage) bool {
	if g.Has(t) {
		return false
	}
	if g.prov == nil {
		return g.insert([]Triple{t}, Derivation{}, true) == 1
	}
	d := Derivation{Rule: g.prov.RuleID(lin.Rule), Round: lin.Round,
		Prem: [3]uint32{NoPremise, NoPremise, NoPremise}}
	for i, p := range lin.Prem {
		if i >= len(d.Prem) {
			break
		}
		if off, ok := g.Offset(p); ok {
			d.Prem[i] = off
		}
	}
	return g.insert([]Triple{t}, d, true) == 1
}
