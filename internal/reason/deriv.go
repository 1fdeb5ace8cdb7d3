package reason

import "powl/internal/rdf"

// pendDeriv is one captured firing — the rule that produced a conclusion
// plus its (body-atom-ordered, truncated-at-three) premise triples — held
// by value until the conclusion is inserted and the premises can be
// resolved to log offsets.
type pendDeriv struct {
	rule *cRule
	prem [3]rdf.Triple
	np   uint8
}

// capture builds the pendDeriv of a firing of r whose premises sit in prem,
// keyed by body-atom index.
func capture(r *cRule, prem [3]rdf.Triple) pendDeriv {
	return pendDeriv{rule: r, prem: prem, np: uint8(min(len(r.body), len(prem)))}
}

// premOffsets resolves premise triples (body-atom order, at most three) to
// their current log offsets. A premise that is not in g — a delta seed the
// caller never inserted, or a backward-chained answer still pending — stays
// NoPremise, which Retract treats as a fragile record.
func premOffsets(g *rdf.Graph, prem []rdf.Triple) [3]uint32 {
	out := [3]uint32{rdf.NoPremise, rdf.NoPremise, rdf.NoPremise}
	for i, p := range prem {
		if off, ok := g.Offset(p); ok {
			out[i] = off
		}
	}
	return out
}

// derivRecorder turns captured firings into provenance records on one
// graph: the compiled-rule → prov rule-id table and premise resolution,
// shared by every engine. It writes Prov, so it is writer-only — the fire
// loop calls it from commit, never from a shard.
type derivRecorder struct {
	g    *rdf.Graph
	prov *rdf.Prov
	ids  []uint16
}

// newDerivRecorder returns a recorder for g, or nil when g records no
// provenance.
func newDerivRecorder(g *rdf.Graph, crs []cRule) *derivRecorder {
	prov := g.Prov()
	if prov == nil {
		return nil
	}
	rec := &derivRecorder{g: g, prov: prov, ids: make([]uint16, len(crs))}
	for i := range crs {
		rec.ids[i] = prov.RuleID(crs[i].name)
	}
	return rec
}

// derivation rebuilds pd on its premises' current log offsets. round
// saturates at the record's 16 bits.
func (rec *derivRecorder) derivation(pd pendDeriv, round int) rdf.Derivation {
	return rdf.Derivation{
		Rule:  rec.ids[pd.rule.idx],
		Round: uint16(min(round, int(^uint16(0)))),
		Prem:  premOffsets(rec.g, pd.prem[:pd.np]),
	}
}

// add inserts t as derived by pd and reports whether it was new to the
// graph. Premises are resolved before the insert, so they land below t in
// the log — what keeps Explain's premise walk acyclic.
func (rec *derivRecorder) add(t rdf.Triple, pd pendDeriv, round int) bool {
	return rec.g.AddDerived(t, rec.derivation(pd, round))
}

// addAlt records pd as t's alternate derivation — the counting-style fast
// path Retract consults — when t is live, the rule's whole body fits the
// record, and no alternate is on file yet.
func (rec *derivRecorder) addAlt(t rdf.Triple, pd pendDeriv, round int) {
	if len(pd.rule.body) > len(pd.prem) {
		return
	}
	off, ok := rec.g.Offset(t)
	if !ok {
		return
	}
	if _, have := rec.prov.AltAt(off); have {
		return
	}
	rec.prov.RecordAlt(off, rec.derivation(pd, round))
}
