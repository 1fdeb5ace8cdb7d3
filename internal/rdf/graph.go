package rdf

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
)

// Graph is an in-memory triple store with set semantics, laid out as a
// structure of arrays: a single append-only triple log plus per-key posting
// lists. The log holds each distinct triple exactly once, in insertion
// order; the five indexes the rule engines and queries read are:
//
//	byS, byP, byO — posting lists of log offsets (4 bytes/entry), for the
//	                one-bound patterns and the (s,·,o) two-sided scan;
//	bySP, byPO    — posting lists of (completing term, log offset) pairs:
//	                the pattern already fixes the other two positions, so
//	                the join path reads the answer directly with no log
//	                indirection, and the offset lets a Snapshot cut the
//	                list at its watermark.
//
// An index exists only once a reader has asked for it: BuildIndexes builds
// it in bulk from the log, and every insert after that maintains it. Until
// then the graph is its log and its dedup table, and a match that would
// read the index scans the log instead, with the same answer in the same
// order. So a graph that is only loaded, split, cloned, unioned or written
// builds no index at all. FromDistinct goes further and leaves the dedup
// table to its first use. bySP, byPO and byP can also be built for only the
// predicates a reader joins through (BuildScope, scope.go); a match on any
// other predicate scans the log the same way.
//
// Since PR 6 the store is a single-writer / multi-reader MVCC substrate:
// exactly one goroutine may mutate the graph, but Snapshot may be called
// from any goroutine at any time and the returned view is stable — pinned
// at the log watermark current when it was taken — while the writer keeps
// appending. There are no locks anywhere: the log and every posting list
// publish their lengths atomically and never rewrite published entries, and
// the index tables are open-addressing with atomic slot publication (see
// index.go for the full argument). An insert allocates nothing per key:
// posting entries sit in per-index chunk arenas, their headers inline in the
// slot tables, and membership is an offset table compared through the log.
//
// All mutating methods (Add, AddAll, Union, Grow, BuildIndexes,
// BuildScope) and the dedup-consulting reads (Has, and the fully-bound
// ForEachMatch/CountMatch probe) remain writer-only: they touch the private
// dedup table. Every other match and count on the graph reads through a
// Snapshot of its whole log. Concurrent readers must go through Snapshot, or
// read a graph whose writer is parked after building every index they read
// (the fire loop's shards).
type Graph struct {
	log  alog[Triple]
	seen dedup // writer-only membership: the live log offsets
	// lazySeen is set while seen is not built (FromDistinct): the writer
	// builds it from the log on first use. Writer-only.
	lazySeen bool
	byS      index[uint32]
	byP      index[uint32]
	byO      index[uint32]
	bySP     index[spEntry] // completing object for (s, p), in log order
	byPO     index[spEntry] // completing subject for (p, o), in log order
	prov     *Prov          // derivation side-column; nil = recording off
	// dead is the published tombstone set (see tombstone.go); nil until the
	// first Delete, so append-only graphs pay one pointer load per match
	// call and nothing per candidate.
	dead atomic.Pointer[tombSet]
	// derived marks the log offsets inserted through a derived path, one bit
	// per offset. Writer-only; kept even with provenance off so the deletion
	// fallback can separate base facts from inferences.
	derived []uint64
}

// NewGraph returns an empty graph.
func NewGraph() *Graph { return NewGraphCap(0) }

// NewGraphCap returns an empty graph pre-sized for about n triples, which
// avoids log and dedup-table regrowth when bulk-loading.
func NewGraphCap(n int) *Graph {
	g := &Graph{}
	if n > 0 {
		g.Grow(n)
	}
	return g
}

// FromDistinct returns a graph whose log is ts, which must hold distinct
// triples; the graph takes ts over. Nothing else is built: the dedup table
// is built by the first write or membership test, the indexes by
// BuildIndexes. A concatenation of disjoint closures becomes a graph at the
// cost of one slice header.
func FromDistinct(ts []Triple) *Graph {
	g := &Graph{lazySeen: true}
	g.log.arr.Store(&ts)
	g.log.n.Store(uint32(len(ts)))
	return g
}

// ensureSeen builds the dedup table if FromDistinct left it unbuilt.
// Writer-only.
func (g *Graph) ensureSeen() {
	if g.lazySeen {
		g.lazySeen = false
		g.seen.rebuild(g.log.view(), g.dead.Load(), g.LiveLen())
	}
}

// Grow reserves room for n additional triples in the log and the dedup
// table, the two structures sized by triple count. The index tables are
// sized by distinct keys, which only a source graph knows (reserveKeys);
// arenas grow a chunk at a time.
func (g *Graph) Grow(n int) {
	g.ensureSeen()
	g.log.grow(n)
	g.seen.reserve(g.log.view(), g.dead.Load(), n)
}

// reserveKeys readies the indexes of set for src's distinct keys on top of
// g's own, each where src's index is built — an upper bound on the union,
// exact when g is empty and covers what src covers.
func (g *Graph) reserveKeys(src *Graph, set IndexSet) {
	if set&IndexS != 0 {
		g.byS.reserveFrom(&src.byS)
	}
	if set&IndexP != 0 {
		g.byP.reserveFrom(&src.byP)
	}
	if set&IndexO != 0 {
		g.byO.reserveFrom(&src.byO)
	}
	if set&IndexSP != 0 {
		g.bySP.reserveFrom(&src.bySP)
	}
	if set&IndexPO != 0 {
		g.byPO.reserveFrom(&src.byPO)
	}
}

// IndexSet is a set of a graph's indexes, one bit each.
type IndexSet uint8

// The five indexes, as IndexSet bits.
const (
	IndexS IndexSet = 1 << iota
	IndexP
	IndexO
	IndexSP
	IndexPO
	AllIndexes = IndexS | IndexP | IndexO | IndexSP | IndexPO
)

// BuildIndexes builds every index of set for every predicate: it builds
// the ones not built yet and completes the ones built for some predicates
// only (BuildScope).
func (g *Graph) BuildIndexes(set IndexSet) { g.BuildScope(Scope{Full: set}) }

// BuildScope extends each index to cover the predicates sc names for it, in
// bulk from the published log, and builds the dedup table if FromDistinct
// left it unbuilt; inserts maintain each index's coverage from then on. An
// index already covering what sc asks is left alone, and none loses
// coverage. The indexes are disjoint, so each one's pass runs on a goroutine
// of its own, and each publishes its new coverage when its pass is done: a
// Snapshot taken at any time reads a predicate's postings only after its
// coverage names it, and scans its pinned log before. Writer-only. A caller
// about to let other goroutines read the graph itself (not through
// Snapshot) calls it first with every index and predicate they read.
func (g *Graph) BuildScope(sc Scope) {
	g.ensureSeen()
	g.buildScope(sc)
}

// buildScope extends each index to sc's coverage by a bulk pass over the
// whole log that writes the postings of the predicates it did not cover.
// Their keys are new, so each new list is written whole, in log order.
func (g *Graph) buildScope(sc Scope) {
	log := g.log.view()
	var grow [5]*PredSet
	n := 0
	for i := range grow {
		ix := IndexSet(1) << i
		if have := g.coverage(ix); !sc.Of(ix).SubsetOf(have) {
			grow[i] = have.Union(sc.Of(ix))
			n++
		}
	}
	build := func(ix IndexSet, to *PredSet) {
		g.indexPass(ix, log, 0, to, g.coverage(ix))
		g.publishCoverage(ix, to)
	}
	var wg sync.WaitGroup
	for i, to := range grow {
		ix := IndexSet(1) << i
		switch {
		case to == nil:
		case n == 1 || len(log) == 0: // nothing to share out
			build(ix, to)
		default:
			wg.Add(1)
			go func() {
				defer wg.Done()
				build(ix, to)
			}()
		}
	}
	wg.Wait()
}

// Add inserts t and reports whether it was not already present. Writer-only.
func (g *Graph) Add(t Triple) bool {
	return g.insert([]Triple{t}, baseDerivation(), false) == 1
}

// AddAll inserts every triple in ts and returns the number newly added.
// Writer-only.
func (g *Graph) AddAll(ts []Triple) int {
	return g.insert(ts, baseDerivation(), false)
}

// insert appends the triples of ts that are not in the graph yet, in input
// order, and returns how many it added: record d for each when provenance is
// on, their offsets marked derived when derived is set. Every write path
// inserts through it — Add and AddAll, Union, AddDerived and AddDerivedAll,
// AddWithLineage, Compact — so the publication order is stated here once:
//
//  1. Dedup and log. Each triple is probed in the dedup table, compared
//     through the whole reserved log array, so a duplicate within ts meets
//     the copy placed moments before; a new one is written into the log
//     past the published length and placed in the table.
//  2. Columns. For the new range [base, n), each built index's postings of
//     the predicates it covers in a pass of its own, then the provenance
//     records and the derived bits.
//  3. Commit. One store of the log length publishes the range. Every
//     posting and record of it was written before that store, so a Snapshot
//     that pins any watermark sees a fully indexed prefix (index.go).
//
// Only inside this call does the writer-private dedup table hold offsets at
// or past the published length; RepairDedup rebuilds it from the published
// log should a writer panic strand them there. Room is reserved at the first
// new triple, so a batch of duplicates grows nothing.
func (g *Graph) insert(ts []Triple, d Derivation, derived bool) int {
	g.ensureSeen()
	base := g.log.length()
	log := g.log.reserved()
	n := base
	for i, t := range ts {
		if _, ok := g.seen.find(log[:n], t); ok {
			continue
		}
		if n == base {
			g.Grow(len(ts) - i)
			log = g.log.reserved()
		}
		g.log.put(n, t)
		g.seen.place(t, uint32(n))
		n++
	}
	if n == base {
		return 0
	}
	for ix := IndexS; ix <= IndexPO; ix <<= 1 {
		if cov := g.coverage(ix); cov != nil {
			g.indexPass(ix, log[base:n], uint32(base), cov, nil)
		}
	}
	if derived {
		for len(g.derived) < (n+63)>>6 {
			g.derived = append(g.derived, 0)
		}
		for off := base; off < n; off++ {
			g.derived[off>>6] |= 1 << (off & 63)
		}
	}
	if g.prov != nil {
		g.prov.recs.grow(n - base)
		for off := base; off < n; off++ {
			g.prov.recs.put(off, d)
		}
		g.prov.recs.publish(n)
	}
	g.log.publish(n)
	return n - base
}

// indexPass writes into the one index ix the postings of the triples of the
// log range ts, which starts at offset base, whose predicate is in to and
// not in have: a pass walks the range once and touches one slot table and
// one arena, instead of all five per triple. Passes over different indexes
// share nothing but the read-only range, so they may run at once. byS and
// byO cover every predicate or none, so their passes take every triple.
func (g *Graph) indexPass(ix IndexSet, ts []Triple, base uint32, to, have *PredSet) {
	all := to.All() && have == nil
	keep := func(p ID) bool { return all || to.Has(p) && !have.Has(p) }
	switch ix {
	case IndexS:
		for i, t := range ts {
			g.byS.append1(key1(t.S), base+uint32(i))
		}
	case IndexP:
		for i, t := range ts {
			if keep(t.P) {
				g.byP.append1(key1(t.P), base+uint32(i))
			}
		}
	case IndexO:
		for i, t := range ts {
			g.byO.append1(key1(t.O), base+uint32(i))
		}
	case IndexSP:
		for i, t := range ts {
			if keep(t.P) {
				g.bySP.append1(key2(t.S, t.P), spEntry{Term: t.O, Off: base + uint32(i)})
			}
		}
	case IndexPO:
		for i, t := range ts {
			if keep(t.P) {
				g.byPO.append1(key2(t.P, t.O), spEntry{Term: t.S, Off: base + uint32(i)})
			}
		}
	}
}

// Has reports whether t is in the graph. Writer-only (it reads the dedup
// table, and builds it if FromDistinct left it unbuilt); concurrent readers
// use Snapshot.Has.
func (g *Graph) Has(t Triple) bool {
	g.ensureSeen()
	_, ok := g.seen.find(g.log.view(), t)
	return ok
}

// Len reports the raw log length — the MVCC watermark, which counts
// tombstoned triples too. Use LiveLen for the live-triple count; the two
// agree until the first Delete. Safe from any goroutine.
func (g *Graph) Len() int { return g.log.length() }

// Triples returns all live triples in insertion order, as a fresh slice the
// caller may modify.
func (g *Graph) Triples() []Triple {
	v := g.log.view()
	dead := g.dead.Load()
	if dead.count() == 0 {
		out := make([]Triple, len(v))
		copy(out, v)
		return out
	}
	out := make([]Triple, 0, len(v)-dead.count())
	for i, t := range v {
		if !dead.has(uint32(i)) {
			out = append(out, t)
		}
	}
	return out
}

// TriplesSince returns a read-only view of the triples added at log offset n
// or later — the graph's delta since the caller last observed Len() == n.
// The log is append-only, so the view stays valid across later Adds, but the
// caller must not modify it; use Triples for an owned copy. The view is the
// raw log and therefore includes tombstoned triples — callers that mix
// deletions with watermark shipping must filter through IsLiveOffset. Safe
// from any goroutine.
func (g *Graph) TriplesSince(n int) []Triple {
	v := g.log.view()
	if n >= len(v) {
		return nil
	}
	return v[n:]
}

// SortedTriples returns all live triples ordered by (S, P, O), for
// deterministic output, as a fresh slice. IDs are dense, so the log is
// counting-sorted on the subject — tombstones dropped in the counting scan —
// and each subject's run is then ordered by (P, O). A graph whose largest
// subject ID is large next to its triple count (a small graph over a big
// dictionary) is comparison-sorted instead, so the count table never
// outweighs the output.
func (g *Graph) SortedTriples() []Triple {
	log := g.log.view()
	dead := g.dead.Load()
	out := make([]Triple, len(log)-dead.count())
	var maxS ID
	for _, t := range log {
		maxS = max(maxS, t.S)
	}
	if int(maxS) > sparseSubjects*len(out) {
		n := 0
		for i, t := range log {
			if !dead.has(uint32(i)) {
				out[n] = t
				n++
			}
		}
		slices.SortFunc(out, compareTriples)
		return out
	}
	// end[s+1] counts subject s; the prefix sum turns end[s] into the start
	// of s's run, and the scatter advances it to the run's end.
	end := make([]uint32, int(maxS)+2)
	for i, t := range log {
		if !dead.has(uint32(i)) {
			end[t.S+1]++
		}
	}
	for s := 1; s < len(end); s++ {
		end[s] += end[s-1]
	}
	for i, t := range log {
		if !dead.has(uint32(i)) {
			out[end[t.S]] = t
			end[t.S]++
		}
	}
	lo := uint32(0)
	for _, hi := range end[:maxS+1] {
		sortRun(out[lo:hi])
		lo = hi
	}
	return out
}

// sparseSubjects is the largest ratio of subject ID to triple count that
// SortedTriples counting-sorts: its count table costs 4 bytes per ID against
// the output's 12 per triple.
const sparseSubjects = 4

// sortRun orders one subject's triples by (P, O): insertion sort for the
// short runs that are nearly all of them, pdqsort for a hub.
func sortRun(run []Triple) {
	if len(run) > 16 {
		slices.SortFunc(run, compareTriples)
		return
	}
	for i := 1; i < len(run); i++ {
		t := run[i]
		j := i
		for ; j > 0 && compareTriples(t, run[j-1]) < 0; j-- {
			run[j] = run[j-1]
		}
		run[j] = t
	}
}

// compareTriples orders triples by (S, P, O), as Triple.Less does.
func compareTriples(a, b Triple) int {
	if c := cmp.Compare(a.S, b.S); c != 0 {
		return c
	}
	if c := cmp.Compare(a.P, b.P); c != 0 {
		return c
	}
	return cmp.Compare(a.O, b.O)
}

// Clone returns a deep copy of the graph: flat copies of the log, the dedup
// table and each built index's slot table and arena chunks, with no
// per-triple or per-key re-insertion; the clone covers what g covers and
// builds nothing g has not built. It only reads g, so goroutines may clone a graph nobody writes
// at the same time; the clone is a fresh graph owned by the caller, and
// appends to either leave the other unchanged.
func (g *Graph) Clone() *Graph {
	c := &Graph{lazySeen: g.lazySeen,
		seen: dedup{slots: append([]uint32(nil), g.seen.slots...), shift: g.seen.shift, count: g.seen.count}}
	g.log.cloneInto(&c.log)
	// The tombstone set is immutable, so the clone shares it; the first
	// Delete on either graph copies on write. The derived bitmap is
	// writer-private and copied.
	if dead := g.dead.Load(); dead != nil {
		c.dead.Store(dead)
	}
	if len(g.derived) > 0 {
		c.derived = append([]uint64(nil), g.derived...)
	}
	if g.prov != nil {
		c.prov = g.prov.cloneNames()
		g.prov.recs.cloneInto(&c.prov.recs)
	}
	g.byS.cloneInto(&c.byS)
	g.byP.cloneInto(&c.byP)
	g.byO.cloneInto(&c.byO)
	g.bySP.cloneInto(&c.bySP)
	g.byPO.cloneInto(&c.byPO)
	return c
}

// ForEachMatch calls fn for every triple matching the pattern, where Wildcard
// in any position matches all terms. Iteration stops early if fn returns
// false. Iteration order is the insertion order of the matching triples. A
// fully bound pattern probes the dedup table; every other pattern is
// answered as a Snapshot of the whole log answers it, and one whose index
// does not cover it by a scan of the log, with the same triples in the same
// order. The graph must not be mutated during iteration; writer-only (the
// dedup probe) — concurrent readers use Snapshot.
//
//powl:allocfree every join probe of every engine lands here
func (g *Graph) ForEachMatch(s, p, o ID, fn func(Triple) bool) {
	if a := g.access(s, p, o, true); a != viaDedup {
		g.Snapshot().match(a, s, p, o, fn)
	} else if _, ok := g.seen.find(g.log.view(), Triple{s, p, o}); ok {
		fn(Triple{s, p, o})
	}
}

// matches reports whether t matches the pattern.
func matches(t Triple, s, p, o ID) bool {
	return (s == Wildcard || t.S == s) && (p == Wildcard || t.P == p) && (o == Wildcard || t.O == o)
}

// scanMatch answers a match from log alone: fn sees every live triple of
// log that matches the pattern, in log order — the order of every posting
// list — until it returns false. It is the fully open pattern's path, and
// every other pattern's while its index does not cover it.
func scanMatch(log []Triple, dead *tombSet, s, p, o ID, fn func(Triple) bool) {
	for i, t := range log {
		if matches(t, s, p, o) && !dead.has(uint32(i)) && !fn(t) {
			return
		}
	}
}

// scanCount counts the triples of log that match the pattern, tombstoned
// ones included: the length the pattern's posting list would have if its
// index were built.
func scanCount(log []Triple, s, p, o ID) int {
	n := 0
	for _, t := range log {
		if matches(t, s, p, o) {
			n++
		}
	}
	return n
}

// Match returns all triples matching the pattern as a slice.
func (g *Graph) Match(s, p, o ID) []Triple {
	var out []Triple
	g.ForEachMatch(s, p, o, func(t Triple) bool {
		out = append(out, t)
		return true
	})
	return out
}

// CountMatch returns the number of triples matching the pattern without
// materializing them. A fully bound pattern probes the dedup table; every
// other pattern is counted as a Snapshot of the whole log counts it, which
// for every shape an index answers but (s,·,o) is the length of a posting
// list, checked in O(1) against the watermark. (s,·,o) counts the matches
// in the shorter of its two posting lists. The rule engines use this as the
// selectivity estimate for join ordering, so it must stay cheap for every
// pattern shape; a pattern whose index does not cover it is counted by a
// scan of the log, with the same result. Writer-only (the dedup probe).
//
// Once the graph has tombstones, the posting-list lengths become upper
// bounds (they count dead entries). That keeps the estimate sound for its
// two consumers — join ordering, and the "zero extent annihilates the join"
// early exit, which only needs that a zero is never reported for a nonempty
// extent. The fully-bound, (s,·,o) and fully open shapes stay exact.
//
//powl:allocfree selectivity ranking runs before every join level
func (g *Graph) CountMatch(s, p, o ID) int {
	if a := g.access(s, p, o, true); a != viaDedup {
		return g.Snapshot().count(a, s, p, o)
	}
	if _, ok := g.seen.find(g.log.view(), Triple{s, p, o}); ok {
		return 1
	}
	return 0
}

// Resources returns the set of IDs that appear as subject or object of some
// triple (the nodes of the RDF graph, excluding predicates).
func (g *Graph) Resources() map[ID]struct{} {
	v := g.log.view()
	dead := g.dead.Load()
	res := make(map[ID]struct{}, len(v)/2+1)
	for i, t := range v {
		if dead.has(uint32(i)) {
			continue
		}
		res[t.S] = struct{}{}
		res[t.O] = struct{}{}
	}
	return res
}

// Subjects returns the set of IDs appearing in subject position.
func (g *Graph) Subjects() map[ID]struct{} {
	v := g.log.view()
	dead := g.dead.Load()
	res := make(map[ID]struct{}, len(v)/4+1)
	for i, t := range v {
		if dead.has(uint32(i)) {
			continue
		}
		res[t.S] = struct{}{}
	}
	return res
}

// Union adds every triple of other into g and returns the number newly
// added. It walks other's log — deterministic order — and pre-sizes g's log,
// dedup table and built index tables from other's triple and key counts;
// g's indexes keep their coverage. Each run
// of live offsets goes in as one range insert. When both graphs record
// provenance, each absorbed triple instead carries its lineage across, one
// at a time: the log walk guarantees premises land before their dependents,
// so offset translation succeeds. Writer-only on g.
func (g *Graph) Union(other *Graph) int {
	g.Grow(other.LiveLen())
	g.reserveKeys(other, g.built())
	log, dead := other.log.view(), other.dead.Load()
	n := 0
	if g.prov != nil && other.prov != nil {
		for i, t := range log {
			if dead.has(uint32(i)) {
				continue
			}
			if lin, ok := other.lineageAt(t, uint32(i)); ok {
				if g.AddWithLineage(t, lin) {
					n++
				}
			} else if g.Add(t) {
				n++
			}
		}
		return n
	}
	for lo := 0; lo < len(log); lo++ {
		hi := lo
		for hi < len(log) && !dead.has(uint32(hi)) {
			hi++
		}
		if hi > lo {
			n += g.insert(log[lo:hi], baseDerivation(), false)
		}
		lo = hi // the dead offset the run stopped at, or the end
	}
	return n
}

// Equal reports whether g and other contain exactly the same live triples.
func (g *Graph) Equal(other *Graph) bool {
	if g.LiveLen() != other.LiveLen() {
		return false
	}
	dead := g.dead.Load()
	for i, t := range g.log.view() {
		if dead.has(uint32(i)) {
			continue
		}
		if !other.Has(t) {
			return false
		}
	}
	return true
}

// Diff returns the live triples present in g but not in other, sorted.
func (g *Graph) Diff(other *Graph) []Triple {
	var out []Triple
	dead := g.dead.Load()
	for i, t := range g.log.view() {
		if dead.has(uint32(i)) {
			continue
		}
		if !other.Has(t) {
			out = append(out, t)
		}
	}
	slices.SortFunc(out, compareTriples)
	return out
}
