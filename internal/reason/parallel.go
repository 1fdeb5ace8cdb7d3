package reason

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"powl/internal/obs"
	"powl/internal/rdf"
)

// The fire loop: the one semi-naive evaluation every Forward run goes
// through, at any shard count.
//
// Scheduling is piecewise stratified (pieces.go): the compiled rule set is
// decomposed into dependency pieces grouped by level, each stratum keeps
// its own delta queue, and strata are swept in topological order so
// conclusions cascade downward within one pass over the strata. One
// stratum firing plus its commit is a *sweep*; sweeps are numbered from 1
// and are what provenance records carry as Round.
//
// A sweep has two phases, built on two invariants the rest of the repo
// already established:
//
//   - The graph is single-writer/multi-reader: during the *fire phase* no
//     goroutine mutates the graph — shards read it (Offset, CountMatch,
//     ForEachMatch) and stage their conclusions into their own DeltaStage
//     shard. All log appends, posting-list publications and provenance
//     writes happen in the *commit phase*, on the caller's goroutine, after
//     the shards have returned. With several shards the WaitGroup join is
//     the happens-before edge between the two phases, so the MVCC
//     publication invariants (graph.go) are untouched.
//   - The join path is per-scratch zero-alloc: each shard creates its own
//     scratch inside the goroutine that uses it and never shares it (the
//     sharedscratch invariant, enforced by owlvet).
//
// Forward.Threads is the shard count. One shard (Threads <= 1, and any
// delta below parallelMinDelta) fires inline on the caller's goroutine: no
// goroutine, no WaitGroup. Several shards claim chunks of the stratum's
// delta from a shared atomic cursor — the work-stealing fallback that
// keeps goroutines busy when a few delta triples are far more expensive
// than the rest (skew). Within a stratum the pieces are mutually
// independent, so the whole stratum's delta fans out with no barrier
// between pieces.
//
// Dispatch: a delta triple activates only the triggers the stratum's atom
// index returns for its predicate and object (atomindex.go), skipping those
// markDead found unable to produce anything this sweep. Both filters remove
// only firings that would have emitted nothing.
//
// Determinism contract: the closure, and with provenance on the
// derived-triple set, is the same at every shard count, and every record
// round-trips through the verifier. With one shard the run is also
// reproducible: triggers are dispatched in rule order, conclusions are
// staged in firing order and committed in staging order, so the log and the
// recorded derivations are identical run to run. With several shards the
// chunk claims race, so log order within a sweep and *which* derivation is
// recorded for a multiply-derivable triple may differ between runs. Journal
// counts (per-rule firings/derived/duplicates) reconcile with the work
// performed.

// parallelMinDelta is the queue size below which a stratum is fired on one
// shard whatever Forward.Threads says: forking over a handful of triples
// costs more than the join work itself. Incremental closes over small seed
// sets (the live-serving path) take this branch.
const parallelMinDelta = 128

// parallelMinChunk is the smallest delta chunk a shard claims; claims this
// coarse keep the atomic cursor off the per-triple path.
const parallelMinChunk = 64

// stratumPlan is one stratum's dispatch: its body atoms as triggers, in
// rule order, and the atom index over them that picks the ones a delta
// triple can match.
type stratumPlan struct {
	trs    []trigger
	idx    atomIndex
	pieces int
}

// planStrata stratifies crs and indexes each stratum's triggers, in rule
// order within a stratum. Trigger ids number the rule set's body atoms in
// plan order.
func planStrata(crs []cRule) []stratumPlan {
	strata := stratify(crs)
	plans := make([]stratumPlan, len(strata))
	var atoms []cAtom
	id := 0
	for s, ps := range strata {
		var trs []trigger
		atoms = atoms[:0]
		for _, pc := range ps {
			for _, ri := range pc.rules {
				r := &crs[ri]
				for j, a := range r.body {
					trs = append(trs, trigger{rule: r, atomIdx: j, id: id})
					atoms = append(atoms, a)
					id++
				}
			}
		}
		plans[s] = stratumPlan{trs: trs, idx: newAtomIndex(trs, atoms), pieces: len(ps)}
	}
	return plans
}

// markDead sets dead[tr.id] for each trigger of the stratum that cannot
// produce anything this sweep — another atom of its body has an empty
// extent with only its constants bound (same-subj while the graph holds no
// owl:sameAs triple) — and clears it for the rest. It is joinRest's "an empty
// extent annihilates the join" exit taken once per sweep instead of once per
// firing, and sound: the fire phase joins only against the graph, which no
// one writes until the commit, CountMatch never reports 0 for a non-empty
// extent, and an extent no index counts (extent) leaves the trigger live.
//
// It returns the byS and byO the sweep's joins read: those a
// variable-predicate atom of a live trigger is joined through, when the
// trigger's own atom may have a non-empty extent. A delta drawn from the
// graph, as every caller's is, activates no other trigger; a trigger a
// foreign delta activates still joins correctly, through the log scans of
// the indexes that are not built.
func (p *stratumPlan) markDead(g *rdf.Graph, dead []bool) rdf.IndexSet {
	var reads rdf.IndexSet
	for _, tr := range p.trs {
		dead[tr.id] = false
		var need rdf.IndexSet
		for k, a := range tr.rule.body {
			if k == tr.atomIdx {
				continue
			}
			if n, ok := extent(g, a); ok && n == 0 {
				dead[tr.id] = true
				break
			}
			if a.p.isVar {
				// Its open patterns read byS and byO. If another atom
				// binds its predicate, the scope already has bySP, byPO
				// and byP full (joinScope).
				need |= rdf.IndexS | rdf.IndexO
			}
		}
		if need == 0 || dead[tr.id] {
			continue
		}
		if n, ok := extent(g, tr.rule.body[tr.atomIdx]); !ok || n > 0 {
			reads |= need
		}
	}
	return reads
}

// extent counts a's constants-only pattern — a variable's id is 0,
// rdf.Wildcard — through an index that covers it, and reports false when
// none does, so markDead never scans the log. A constant-predicate pattern
// the Program's scope leaves uncovered, such as (?, p, C) in a rule that
// always joins it with the subject bound, is counted by its predicate's
// byP list when the scope covers that: an upper bound, so a zero is still
// exact.
func extent(g *rdf.Graph, a cAtom) (int, bool) {
	s, p, o := a.s.id, a.p.id, a.o.id
	switch {
	case g.Indexed(s, p, o):
		return g.CountMatch(s, p, o), true
	case p != rdf.Wildcard && g.Indexed(rdf.Wildcard, p, rdf.Wildcard):
		return g.CountMatch(rdf.Wildcard, p, rdf.Wildcard), true
	}
	return 0, false
}

// fireRun carries one materialization's state. Everything a shard writes
// during a fire phase is indexed by its shard number; the scratches are
// *not* here — each shard creates its own and never publishes it (the
// sharedscratch invariant).
type fireRun struct {
	g     *rdf.Graph
	p     *Program
	stage *rdf.DeltaStage // one shard per Forward.Threads

	// Provenance on: rec turns captured firings into records at commit (it
	// writes Prov, so shards never call it); sidecars[w] is aligned with
	// shard w's staged triples.
	rec      *derivRecorder
	sidecars [][]pendDeriv

	// Profiling on: ruleProf's slices are not goroutine-safe, so each shard
	// tallies into its own and the caller folds them in after the join.
	prof  *ruleProf
	tally []*ruleProf

	// dead is the per-sweep trigger mask (markDead), indexed by trigger id
	// and written only before the shards start; acts[w] is shard w's fireOn
	// count in the current sweep.
	dead []bool
	acts []int
}

// Fire runs semi-naive evaluation of p over g from delta, which it only
// reads, and returns the number of triples added; see the file comment for
// the phase discipline and the determinism contract. Fired from every live
// triple of g it materializes g. Fired from seeds just inserted into a g
// that was closed under p before, it closes g incrementally: every missing
// derivation joins at least one seed (MaterializeFromCtx's contract). The
// only error is ctx's.
//
//powl:ignore wallclock per-piece spans accumulate real durations; recorded only when a collector is attached.
func (f Forward) Fire(ctx context.Context, g *rdf.Graph, p *Program, delta []rdf.Triple) (int, error) {
	prof := newRuleProf(ctx, p.rules)
	defer prof.flush()
	spans := obs.PiecesFrom(ctx)

	threads := max(f.Threads, 1)
	plans := p.plans
	g.BuildScope(p.scope)
	r := &fireRun{
		g: g, p: p,
		stage: rdf.NewDeltaStage(threads),
		rec:   newDerivRecorder(g, p.rules),
		prof:  prof,
		dead:  make([]bool, p.ntr),
		acts:  make([]int, threads),
	}
	if prof != nil {
		r.tally = make([]*ruleProf, threads)
		for w := range r.tally {
			r.tally[w] = newTally(p.rules)
		}
	}
	if r.rec != nil {
		r.sidecars = make([][]pendDeriv, threads)
	}

	// Queue the initial delta at every stratum. The three-index slice caps
	// capacity so routing appends can never scribble on the caller's
	// backing array (which may be the graph's own log).
	queues := make([][]rdf.Triple, len(plans))
	for s := range plans {
		if plans[s].idx.n > 0 {
			queues[s] = delta[:len(delta):len(delta)]
		}
	}

	added := 0
	sweep := 0
	for {
		progressed := false
		for s := range plans {
			d := queues[s]
			if len(d) == 0 {
				continue
			}
			if err := ctx.Err(); err != nil {
				return added, err
			}
			queues[s] = nil
			progressed = true
			sweep++
			start := time.Now()
			acts, err := r.fireStratum(ctx, &plans[s], d)
			if err != nil {
				return added, err
			}
			fresh := r.commit(sweep)
			added += len(fresh)
			// Route the sweep's conclusions to every stratum with an atom
			// they can match — including this one, for recursive pieces.
			for _, t := range fresh {
				for s2 := range plans {
					if len(plans[s2].idx.lookup(t)) > 0 {
						queues[s2] = append(queues[s2], t)
					}
				}
			}
			if spans != nil {
				spans.Record(obs.PieceSpan{
					Stratum: s, Pieces: plans[s].pieces, Sweep: sweep,
					Threads: threads, Delta: len(d), Derived: len(fresh),
					Activations: acts, Dur: time.Since(start),
				})
			}
		}
		if !progressed {
			return added, nil
		}
	}
}

// fireStratum fires d through the stratum's triggers on up to all of the
// run's shards. Chunks are claimed from a shared atomic cursor — the
// work-stealing fallback: a shard that drew cheap triples keeps claiming
// chunks while a slow one is still inside its own, so a skewed delta cannot
// serialize the stratum. One shard fires inline on the caller's goroutine.
// It returns the activations — fireOn calls — the shards made.
func (r *fireRun) fireStratum(ctx context.Context, plan *stratumPlan, d []rdf.Triple) (int, error) {
	nw := r.stage.Shards()
	if len(d) < parallelMinDelta {
		nw = 1
	}
	// The writer builds what the shards will read before any of them runs.
	r.g.BuildIndexes(plan.markDead(r.g, r.dead))
	chunk := max(len(d)/(nw*4), parallelMinChunk)
	var next atomic.Int64
	var failed atomic.Bool
	if nw == 1 {
		r.fireShard(ctx, plan, d, 0, &next, chunk, &failed)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < nw; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				r.fireShard(ctx, plan, d, w, &next, chunk, &failed)
			}(w)
		}
		wg.Wait()
	}
	if r.prof != nil {
		for _, tl := range r.tally {
			r.prof.fold(tl)
		}
	}
	acts := 0
	for _, n := range r.acts[:nw] {
		acts += n
	}
	if failed.Load() {
		return acts, ctx.Err()
	}
	return acts, nil
}

// fireShard is one shard's share of a stratum firing, and the only place
// rules are fired from. The scratch is created here, inside the goroutine
// that uses it, and never escapes — the sharedscratch invariant owlvet
// enforces. During the firing the graph is read-only (every conclusion is
// staged into this shard), so concurrent shards' Offset/CountMatch/
// ForEachMatch calls race with nothing; the caller is parked on the
// WaitGroup, or is this very goroutine, until every shard returns.
//
// ctx is probed once per chunk claim and every 256 triples within a chunk,
// so cancellation lands within 256 delta triples' firings however small
// the delta; the staged conclusions of a cancelled sweep are dropped, which
// leaves the graph sound but incomplete.
//
//powl:ignore wallclock chained per-rule profiling timestamps; disabled when no collector is attached.
func (r *fireRun) fireShard(ctx context.Context, plan *stratumPlan, d []rdf.Triple, w int, next *atomic.Int64, chunk int, failed *atomic.Bool) {
	sc := newScratch(r.p)
	sh := r.stage.Shard(w)
	g := r.g
	var tl *ruleProf
	if r.prof != nil {
		tl = r.tally[w]
	}
	emit := func(t rdf.Triple) {
		if !g.Has(t) {
			sh.Add(t)
		}
	}
	if r.rec != nil {
		// Capture the firing rule and its premises (held in the scratch by
		// fireOn/joinRest) next to every staged conclusion. The emit above
		// is untouched by provenance, so the disabled path stays zero-alloc
		// per delta triple.
		sc.rec = true
		emit = func(t rdf.Triple) {
			if !g.Has(t) && sh.Add(t) {
				r.sidecars[w] = append(r.sidecars[w], capture(sc.cur, sc.prem))
			} else if tl != nil {
				// A duplicate: the triple is in the graph or already
				// staged by this shard, and its first derivation keeps the
				// record.
				tl.dup[sc.cur.idx]++
			}
		}
	}
	dead := r.dead
	acts := 0
claim:
	for !failed.Load() {
		lo := (int(next.Add(1)) - 1) * chunk
		if lo >= len(d) {
			break
		}
		if ctx.Err() != nil {
			failed.Store(true)
			break
		}
		for i, t := range d[lo:min(lo+chunk, len(d))] {
			if i&255 == 255 && ctx.Err() != nil {
				failed.Store(true)
				break claim
			}
			var t0 time.Time
			if tl != nil {
				t0 = time.Now()
			}
			for _, tr := range plan.idx.lookup(t) {
				if dead[tr.id] {
					continue
				}
				acts++
				m, fr := fireOn(g, sc, tr, t, emit)
				if tl != nil {
					// Chained timestamps: consecutive activations share one
					// clock read, so profiling costs one time.Now per fireOn.
					t1 := time.Now()
					tl.add(tr.rule.idx, fr, m, t1.Sub(t0))
					t0 = t1
				}
			}
		}
	}
	r.acts[w] = acts
}

// commit drains the stage into the log — the single-writer commit the MVCC
// publication invariants require — in shard order, each shard in staging
// order, and returns the triples that were new to the graph: the log range
// the commit appended, a read-only view. Without provenance each shard goes
// in as one range insert; with it, triple by triple, and a triple staged by
// two shards keeps the record of the first AddDerived. Caller's goroutine
// only.
func (r *fireRun) commit(sweep int) []rdf.Triple {
	base := r.g.Len()
	for w := 0; w < r.stage.Shards(); w++ {
		sh := r.stage.Shard(w)
		if r.rec == nil {
			// Derived rather than plain inserts: even without provenance
			// records the graph tracks which offsets are engine-derived,
			// which is what the provenance-off Retract fallback keys on.
			r.g.AddDerivedAll(sh.Triples(), rdf.Derivation{})
			sh.Reset()
			continue
		}
		for i, t := range sh.Triples() {
			pd := r.sidecars[w][i]
			if r.rec.add(t, pd, sweep) {
				r.prof.addDerived(pd.rule.idx, 1, 0)
			} else {
				r.prof.addDerived(pd.rule.idx, 0, 1)
			}
		}
		sh.Reset()
		r.sidecars[w] = r.sidecars[w][:0]
	}
	return r.g.TriplesSince(base)
}
