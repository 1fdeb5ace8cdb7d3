package rdf

import "sync/atomic"

// Index coverage. bySP, byPO and byP key every posting list on the triple's
// predicate, so one of them can be built for some predicates and not others:
// a list exists for a key exactly when the index covers its predicate, and
// then holds all of the key's log offsets in log order. byS and byO key on a
// term alone, so their lists span predicates, and they are built for every
// predicate or not at all.
//
// An index's coverage is an immutable PredSet behind an atomic pointer; nil
// means the index is not built. Coverage only grows: extending it writes the
// postings of the newly covered predicates — new keys only, each list in log
// order — and then publishes the larger set, as a first build publishes its
// first one. A reader that loads the old set scans the log for the new
// predicates, one that loads the new set finds their lists complete below
// any watermark it pinned; either way it answers the same. Inserts maintain
// only the covered predicates.

// PredSet is an immutable set of predicates: the ones a scoped index answers.
// A nil *PredSet is the empty set.
type PredSet struct {
	all  bool
	bits []uint64 // bit p: predicate p is in the set
}

// AllPreds is the set of every predicate.
var AllPreds = &PredSet{all: true}

// Preds returns the set of ps, nil when ps is empty. ps must not hold
// Wildcard.
func Preds(ps ...ID) *PredSet {
	if len(ps) == 0 {
		return nil
	}
	var top ID
	for _, p := range ps {
		top = max(top, p)
	}
	s := &PredSet{bits: make([]uint64, top>>6+1)}
	for _, p := range ps {
		s.bits[p>>6] |= 1 << (p & 63)
	}
	return s
}

// Has reports whether p is in s.
func (s *PredSet) Has(p ID) bool {
	if s == nil {
		return false
	}
	w := int(p >> 6)
	return s.all || w < len(s.bits) && s.bits[w]>>(p&63)&1 != 0
}

// All reports whether s holds every predicate.
func (s *PredSet) All() bool { return s != nil && s.all }

// SubsetOf reports whether every predicate of s is in t.
func (s *PredSet) SubsetOf(t *PredSet) bool {
	switch {
	case s == nil || t.All():
		return true
	case t == nil || s.all:
		return false
	}
	for i, w := range s.bits {
		if i >= len(t.bits) && w != 0 || i < len(t.bits) && w&^t.bits[i] != 0 {
			return false
		}
	}
	return true
}

// Union returns s ∪ t, which is s or t itself when one holds the other.
func (s *PredSet) Union(t *PredSet) *PredSet {
	switch {
	case t.SubsetOf(s):
		return s
	case s.SubsetOf(t):
		return t
	}
	bits := make([]uint64, max(len(s.bits), len(t.bits)))
	copy(bits, s.bits)
	for i, w := range t.bits {
		bits[i] |= w
	}
	return &PredSet{bits: bits}
}

// Scope says which predicates each index answers. Full names the indexes
// built for every predicate; SP, PO and P name the predicates bySP, byPO and
// byP answer beyond that. byS and byO have no predicate set: they are in
// Full or not built.
type Scope struct {
	Full      IndexSet
	SP, PO, P *PredSet
}

// Of returns the predicates index ix answers under sc.
func (sc Scope) Of(ix IndexSet) *PredSet {
	switch {
	case sc.Full&ix != 0:
		return AllPreds
	case ix == IndexSP:
		return sc.SP
	case ix == IndexPO:
		return sc.PO
	case ix == IndexP:
		return sc.P
	}
	return nil
}

// coverage loads the coverage of the one index ix. Safe from any goroutine.
func (g *Graph) coverage(ix IndexSet) *PredSet {
	switch ix {
	case IndexS:
		return g.byS.cov.Load()
	case IndexP:
		return g.byP.cov.Load()
	case IndexO:
		return g.byO.cov.Load()
	case IndexSP:
		return g.bySP.cov.Load()
	default:
		return g.byPO.cov.Load()
	}
}

// publishCoverage stores to as the coverage of the one index ix, once its
// postings are written. Writer-only.
func (g *Graph) publishCoverage(ix IndexSet, to *PredSet) {
	switch ix {
	case IndexS:
		g.byS.cov.Store(to)
	case IndexP:
		g.byP.cov.Store(to)
	case IndexO:
		g.byO.cov.Store(to)
	case IndexSP:
		g.bySP.cov.Store(to)
	default:
		g.byPO.cov.Store(to)
	}
}

// Scope returns what the graph has built of each index. Safe from any
// goroutine.
func (g *Graph) Scope() Scope {
	var sc Scope
	for ix := IndexS; ix <= IndexPO; ix <<= 1 {
		switch c := g.coverage(ix); {
		case c.All():
			sc.Full |= ix
		case ix == IndexSP:
			sc.SP = c
		case ix == IndexPO:
			sc.PO = c
		case ix == IndexP:
			sc.P = c
		}
	}
	return sc
}

// built returns the indexes built for at least one predicate.
func (g *Graph) built() IndexSet {
	var set IndexSet
	for ix := IndexS; ix <= IndexPO; ix <<= 1 {
		if g.coverage(ix) != nil {
			set |= ix
		}
	}
	return set
}

// Indexed reports whether a match or count of the pattern reads an index
// that covers it, or needs none — the dedup table, or the whole log for the
// fully open pattern — rather than scanning the log. Safe from any goroutine
// for every pattern but the fully bound one, which reads the writer's
// lazy-dedup flag.
func (g *Graph) Indexed(s, p, o ID) bool { return g.access(s, p, o, true) != viaScan }

// access is the path that answers a pattern, as Graph.access picks it.
type access uint8

const (
	viaScan  access = iota // a scan of the log, filtered on the pattern
	viaLog                 // the fully open pattern: the whole log
	viaDedup               // the fully bound pattern, on the writer: the dedup table
	viaSP                  // bySP(s, p)
	viaPO                  // byPO(p, o)
	viaSPPO                // the fully bound pattern: the shorter of bySP(s, p) and byPO(p, o)
	viaSO                  // (s,·,o): the shorter of byS(s) and byO(o)
	viaS                   // byS(s)
	viaP                   // byP(p)
	viaO                   // byO(o)
)

// access picks the path that answers the pattern, Wildcard marking an open
// position, from the index coverage it loads now; writer says the caller may
// probe the dedup table, which a fully bound pattern then reads if it is
// built. Every match, count and membership test, on the graph and on a
// Snapshot, and Indexed, read the index it names; an index that does not
// cover the pattern is never read, and the answer is viaScan.
func (g *Graph) access(s, p, o ID, writer bool) access {
	switch {
	case s != Wildcard && p != Wildcard && o != Wildcard:
		if writer && !g.lazySeen {
			return viaDedup
		}
		switch sp, po := g.bySP.covers(p), g.byPO.covers(p); {
		case sp && po:
			return viaSPPO
		case sp:
			return viaSP
		case po:
			return viaPO
		}
	case s != Wildcard && p != Wildcard:
		if g.bySP.covers(p) {
			return viaSP
		}
	case p != Wildcard && o != Wildcard:
		if g.byPO.covers(p) {
			return viaPO
		}
	case s != Wildcard && o != Wildcard:
		if g.byS.full() && g.byO.full() {
			return viaSO
		}
	case s != Wildcard:
		if g.byS.full() {
			return viaS
		}
	case p != Wildcard:
		if g.byP.covers(p) {
			return viaP
		}
	case o != Wildcard:
		if g.byO.full() {
			return viaO
		}
	default:
		return viaLog
	}
	return viaScan
}

// logScans counts the matches and counts on a constant predicate that were
// answered by a scan of the log because no built index covered them.
var logScans atomic.Int64

// noteScan records a log scan for the pattern's predicate, if constant.
func noteScan(p ID) {
	if p != Wildcard {
		logScans.Add(1)
	}
}

// LogScans returns how many matches and counts on a constant predicate have
// fallen back to a scan of the log, process-wide, since start. A scan gives
// the right answer at a cost linear in the log, so a join that lands here
// once per firing goes quadratic; tests read the counter to catch an index
// scope that misses a predicate a join reads.
func LogScans() int64 { return logScans.Load() }
