package reason

import (
	"context"
	"sort"

	"powl/internal/obs"
	"powl/internal/rdf"
	"powl/internal/rules"
)

// Retraction: DRed (delete-and-rederive) maintenance over the tombstoned
// triple log.
//
// The invariant the serving layer relies on is
//
//	live(g) == closure(live asserted triples of g, rs)
//
// before and after every Retract. Deleting an asserted triple therefore
// has to remove exactly the inferences that no longer have any derivation —
// which the provenance side-column makes cheap: each derived offset records
// the rule and premise offsets that first produced it, so the reverse map
// (premise offset → consumer offsets) bounds the cone a deletion can
// affect.
//
// The two DRed phases map onto the log like this:
//
//  1. Overdelete: BFS the consumers index from the requested offsets,
//     tombstoning the whole cone in one atomic tombstone-set publication.
//     Overdeletion is a superset of the true deletion — anything in the
//     cone that is still derivable comes back in phase 2.
//  2. Rederive: each overdeleted triple is checked for one derivation from
//     the surviving graph (head bound to the triple, body joined through
//     the index); everything restored then seeds the incremental
//     semi-naive engine, which restores the fixpoint.
//
// Soundness of the record-driven cone: a surviving derived triple's record
// premises are live (else it would be in the cone), so by induction on
// restore order every live triple is in the closure of the surviving
// asserted set. Records that cannot support that induction — a rule body
// longer than the three recorded premise slots, an unresolved NoPremise
// slot, or a rule name unknown to this rule set — are *fragile*: they are
// conservatively overdeleted on every retraction and must re-earn their
// place through rederivation.
//
// Without provenance the Retractor degrades to delete-and-rematerialize:
// tombstone the requested triples plus every derived offset (the graph
// tracks a derived bit independently of provenance) and rerun the forward
// engine from the surviving asserted triples. Slow, but exactly as correct.

// RetractStats reports what one Retract did.
type RetractStats struct {
	// Requested is the number of triples asked for that were present.
	Requested int
	// Overdeleted is the total tombstoned count: the requested triples plus
	// the provenance cone (or, without provenance, all derived triples).
	Overdeleted int
	// Reinstated is always 0: every overdeleted triple that comes back does
	// so through the rederive join and is counted in Rederived. The field
	// is kept only while cmd/owlbench still reads it.
	Reinstated int
	// Rederived is the overdeleted triples restored by the one-step join.
	Rederived int
	// Propagated is the triples re-added by the closing semi-naive pass
	// seeded with the restored triples (plus, without provenance, the full
	// rematerialization's additions).
	Propagated int
}

// Retractor maintains the closure of one graph under deletions, running
// one Program: its head index finds the rules a triple may be concluded by,
// its body lengths classify provenance records, and its fire loop restores
// the fixpoint. It is writer-side state: call Retract from the same single
// goroutine that owns the graph. The consumers index is built lazily from
// the provenance side-column and extended incrementally from a scan
// watermark, so steady inserts pay nothing for it; binding follows the
// graph identity, so swapping in a compacted graph resets the index
// automatically. A zero Retractor needs SetProgram before its first Retract.
type Retractor struct {
	// Obs, when set, receives an EvWarn journal event whenever a retraction
	// runs without provenance and degrades to delete-and-rematerialize.
	// Nil-safe: a nil Run swallows the emit.
	Obs *obs.Run

	// Threads is forwarded to the forward engine runs Retract seeds (the
	// closing semi-naive pass and the provenance-off rematerialization); see
	// Forward.Threads. The overdelete/rederive phases themselves stay on the
	// single writer goroutine.
	Threads int

	p *Program

	// Per-graph state, reset when the graph identity changes.
	g       *rdf.Graph
	cons    map[uint32][]uint32 // premise offset → consumer offsets
	fragile []uint32            // derived offsets needing conservative overdelete
	idLen   map[uint16]int      // prov rule id → body length; -1 = unknown rule
	scanned int                 // provenance scan watermark
}

// NewRetractor compiles rs and returns a Retractor for graphs closed under
// it. It panics on a rule set Compile rejects — callers that accept rules
// from outside compile them first and use SetProgram.
func NewRetractor(rs []rules.Rule) *Retractor {
	p, err := Compile(rs)
	if err != nil {
		panic(err)
	}
	r := &Retractor{}
	r.SetProgram(p)
	return r
}

// SetProgram makes p the rule set the Retractor maintains closures under.
// The per-graph provenance caches are dropped — the rule-name → body-length
// cache and the fragility classification both depend on the rule set — so
// the next Retract rebuilds them against p. The graph itself is untouched;
// the caller re-runs the fire loop if p derives more.
func (r *Retractor) SetProgram(p *Program) {
	r.p = p
	r.g = nil
}

// fire runs the Retractor's program over g from delta. Under
// context.Background the fire loop cannot fail.
func (r *Retractor) fire(g *rdf.Graph, delta []rdf.Triple) int {
	n, _ := Forward{Threads: r.Threads}.Fire(context.Background(), g, r.p, delta)
	return n
}

// rebind resets the per-graph state for g.
func (r *Retractor) rebind(g *rdf.Graph) {
	r.g = g
	r.cons = map[uint32][]uint32{}
	r.fragile = r.fragile[:0]
	r.idLen = map[uint16]int{}
	r.scanned = 0
}

// recLen resolves a record's rule id to its body length, or -1 when the
// rule is unknown to this rule set.
func (r *Retractor) recLen(prov *rdf.Prov, id uint16) int {
	if n, ok := r.idLen[id]; ok {
		return n
	}
	n, ok := r.p.bodyLen[prov.RuleName(id)]
	if !ok {
		n = -1
	}
	r.idLen[id] = n
	return n
}

// extend scans provenance records from the watermark, classifying each
// derived offset as indexed (complete premise record, registered in the
// consumers map) or fragile.
func (r *Retractor) extend() {
	prov := r.g.Prov()
	n := r.g.Len()
	for off := r.scanned; off < n; off++ {
		d := prov.At(uint32(off))
		if !d.IsDerived() {
			continue
		}
		bl := r.recLen(prov, d.Rule)
		np := bl
		if np > len(d.Prem) {
			np = len(d.Prem)
		}
		complete := bl > 0 && bl <= len(d.Prem)
		for i := 0; i < np; i++ {
			if d.Prem[i] == rdf.NoPremise {
				complete = false
			}
		}
		if !complete {
			r.fragile = append(r.fragile, uint32(off))
			// Still register whatever premises the record names: a fragile
			// triple must at least fall when a recorded premise falls.
			for i := 0; i < np; i++ {
				if p := d.Prem[i]; p != rdf.NoPremise {
					r.cons[p] = append(r.cons[p], uint32(off))
				}
			}
			continue
		}
		for i := 0; i < np; i++ {
			r.cons[d.Prem[i]] = append(r.cons[d.Prem[i]], uint32(off))
		}
	}
	r.scanned = n
}

// Retract removes dels from g and restores the fixpoint
// live(g) == closure(live asserted, rs). Writer-only. Requested triples
// that are still derivable from the surviving asserted set (i.e. deleting
// an inference) are restored as derived triples.
func (r *Retractor) Retract(g *rdf.Graph, dels []rdf.Triple) RetractStats {
	var st RetractStats
	if g.Prov() == nil {
		return r.retractRebuild(g, dels)
	}
	if r.g != g {
		r.rebind(g)
	}
	g.BuildIndexes(r.p.reads) // rederivation may join through any body atom
	r.extend()

	// Overdelete cone: requested offsets, fragile offsets, and transitively
	// every recorded consumer.
	over := map[uint32]struct{}{}
	var stack []uint32
	mark := func(off uint32) {
		if _, ok := over[off]; !ok {
			over[off] = struct{}{}
			stack = append(stack, off)
		}
	}
	for _, t := range dels {
		if off, ok := g.Offset(t); ok {
			st.Requested++
			mark(off)
		}
	}
	if st.Requested == 0 {
		return st
	}
	for _, off := range r.fragile {
		if g.IsLiveOffset(off) {
			mark(off)
		}
	}
	for len(stack) > 0 {
		off := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range r.cons[off] {
			if g.IsLiveOffset(c) {
				mark(c)
			}
		}
	}

	// The cone is a map; sort before anything order-sensitive (tombstone
	// publication is order-insensitive, but the rederivation queue below
	// must run premises before consumers, i.e. ascending offsets).
	offs := make([]uint32, 0, len(over))
	for off := range over {
		offs = append(offs, off)
	}
	sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })

	logv := g.TriplesSince(0)
	st.Overdeleted = g.DeleteOffsets(offs)

	// Restore pass, ascending: premises precede consumers in the log, so a
	// candidate's overdeleted premises have already had their chance to come
	// back when it is examined. The rederive join's scratch lives for this
	// call only (the sharedscratch invariant), recording premises.
	sc := newScratch(r.p)
	sc.rec = true
	var seeds []rdf.Triple
	for _, off := range offs {
		t := logv[off]
		if g.Has(t) {
			// A re-added duplicate of an earlier dead offset.
			continue
		}
		if d, ok := r.deriveOnce(g, sc, t); ok {
			g.AddDerived(t, d)
			seeds = append(seeds, t)
			st.Rederived++
		}
	}

	// Every restored triple may unlock further derivations (and duplicates
	// of still-dead cone members); the graph minus the cone was closed, so
	// seeding the semi-naive delta with the restorations is complete.
	if len(seeds) > 0 {
		st.Propagated = r.fire(g, seeds)
	}
	return st
}

// deriveOnce looks for one derivation of t from the current live graph: for
// every rule head the head index offers for t it joins the full body
// through joinRest, stopping at the first complete match, whose premises
// sc records. It returns the provenance record of that derivation.
func (r *Retractor) deriveOnce(g *rdf.Graph, sc *scratch, t rdf.Triple) (rdf.Derivation, bool) {
	for _, ht := range r.p.heads.lookup(t) {
		cr := ht.rule
		e := sc.env[:cr.nslot]
		clear(e)
		if _, ok := e.bindTriple(cr.head[ht.atomIdx], t); !ok {
			continue
		}
		sc.prem = [3]rdf.Triple{}
		rest := sc.rest[:0]
		for i := range cr.body {
			rest = append(rest, i)
		}
		if joinRest(g, sc, cr, rest, e, func() bool { return false }) {
			continue // ran to the end: no match
		}
		np := min(len(cr.body), len(sc.prem))
		return rdf.Derivation{Rule: g.Prov().RuleID(cr.name), Prem: premOffsets(g, sc.prem[:np])}, true
	}
	return rdf.Derivation{}, false
}

// retractRebuild is the provenance-off fallback: tombstone the requested
// triples plus every derived offset, then rematerialize from the surviving
// asserted triples. Mirrors the degradation rule of the lineage sidecars —
// missing metadata costs performance, never correctness.
func (r *Retractor) retractRebuild(g *rdf.Graph, dels []rdf.Triple) RetractStats {
	r.Obs.Emit(obs.Event{
		Type: obs.EvWarn, TS: r.Obs.Now(), Worker: obs.MasterWorker,
		Name: "retract: graph has no provenance; degraded to delete-and-rematerialize",
	})
	var st RetractStats
	offs := make([]uint32, 0, len(dels))
	for _, t := range dels {
		if off, ok := g.Offset(t); ok {
			st.Requested++
			offs = append(offs, off)
		}
	}
	if st.Requested == 0 {
		return st
	}
	n := g.Len()
	for off := 0; off < n; off++ {
		o := uint32(off)
		if g.IsDerivedOffset(o) && g.IsLiveOffset(o) {
			offs = append(offs, o)
		}
	}
	st.Overdeleted = g.DeleteOffsets(offs)
	st.Propagated = r.fire(g, liveDelta(g))
	return st
}
