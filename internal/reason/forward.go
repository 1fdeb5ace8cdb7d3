package reason

import (
	"context"

	"powl/internal/rdf"
	"powl/internal/rules"
)

// Forward is the semi-naive bottom-up datalog engine. Each sweep joins a
// stratum's delta against the full graph, so every derivation is performed
// once; sweeps continue until no new triples appear. The evaluation itself
// is the fire loop in parallel.go.
type Forward struct {
	// Threads is the fire loop's shard count: a stratum's delta is fired
	// across this many goroutines, each with its own scratch and staging
	// shard, and merged back through the single-writer commit so the
	// graph's MVCC publication invariants hold. 0 or 1 is one shard, fired
	// inline on the caller's goroutine. The closure (and, with provenance
	// on, the derived-triple set) is the same at every value; a one-shard
	// run is also reproducible — same log order, same recorded derivations
	// — while with several shards log order and the derivation recorded for
	// a multiply-derivable triple may differ between runs.
	Threads int
}

// Name implements Engine.
func (Forward) Name() string { return "forward" }

// Materialize is MaterializeCtx without cancellation; it panics on a rule
// set Compile rejects (see must).
func (f Forward) Materialize(g *rdf.Graph, rs []rules.Rule) int {
	return must(f.MaterializeCtx(context.Background(), g, rs))
}

// MaterializeCtx implements Engine: the fire loop probes ctx between sweeps
// and at least every 256 delta triples within one.
func (f Forward) MaterializeCtx(ctx context.Context, g *rdf.Graph, rs []rules.Rule) (int, error) {
	p, err := Compile(rs)
	if err != nil {
		return 0, err
	}
	return f.Fire(ctx, g, p, liveDelta(g))
}

// liveDelta is every live triple of g, the delta that materializes it. The
// fire loop only reads its delta, so the log itself serves; only a graph
// with tombstones needs the filtered copy.
func liveDelta(g *rdf.Graph) []rdf.Triple {
	if g.Dead() > 0 {
		return g.Triples()
	}
	return g.TriplesSince(0)
}

// scratch holds the reusable join buffers of one materialization: a binding
// environment sized for the widest rule and a rest-atom order buffer sized
// for the longest body. fireOn re-slices them per rule, so the steady-state
// join path performs no per-firing allocations.
//
// When rec is set (the owning graph records provenance), fireOn and
// joinRest additionally track the firing rule and the triples bound to the
// first three body atoms, so emit — or DRed's rederivation — can read the
// premises of the current match straight out of the scratch, still with no
// per-firing allocation.
//
// The buffers are reused across firings with no synchronization, so a
// scratch must never be visible to two goroutines: the fire loop creates one
// per shard inside the goroutine that fires it (see fireShard), Retract one
// per call, and owlvet's sharedscratch analyzer enforces the confinement via
// the directive below.
//
//powl:goroutinelocal
type scratch struct {
	env  env
	rest []int
	rec  bool
	cur  *cRule
	prem [3]rdf.Triple
}

func newScratch(p *Program) *scratch {
	return &scratch{env: make(env, p.maxSlot), rest: make([]int, 0, p.maxBody)}
}

// fireOn seeds rule tr.rule with delta triple t at body position tr.atomIdx,
// joins the remaining body atoms against the full graph, and emits every
// resulting head instantiation. It reports the complete body matches and
// head emissions it produced, for the per-rule profile.
//
//powl:allocfree steady-state join path: all scratch comes from sc
func fireOn(g *rdf.Graph, sc *scratch, tr trigger, t rdf.Triple, emit func(rdf.Triple)) (matches, firings int64) {
	r := tr.rule
	e := sc.env[:r.nslot]
	for i := range e {
		e[i] = 0
	}
	if _, ok := e.bindTriple(r.body[tr.atomIdx], t); !ok {
		return 0, 0
	}
	if sc.rec {
		sc.cur = r
		sc.prem = [3]rdf.Triple{}
		if tr.atomIdx < len(sc.prem) {
			sc.prem[tr.atomIdx] = t
		}
	}
	rest := sc.rest[:0]
	for i := range r.body {
		if i != tr.atomIdx {
			rest = append(rest, i)
		}
	}
	joinRest(g, sc, r, rest, e, func() bool {
		matches++
		for _, h := range r.head {
			firings++
			emit(e.instantiate(h))
		}
		return true
	})
	return matches, firings
}

// joinRest extends e over the body atoms listed in rest (indices into
// r.body), calling yield for every complete assignment until yield returns
// false, and reports whether it ran to the end. At each step it
// picks the remaining atom with the smallest index cardinality under the
// current bindings (CountMatch is O(1) for every pattern the OWL-Horst
// bodies produce), which starts each join from its most selective extent —
// the rule-body ordering RORS and the dynamic-exchange Datalog stores
// attribute their throughput to. Selection reorders rest in place, so the
// whole join runs on the caller's scratch buffer with no per-level copies.
//
//powl:allocfree the innermost loop of every engine
func joinRest(g *rdf.Graph, sc *scratch, r *cRule, rest []int, e env, yield func() bool) bool {
	if len(rest) == 0 {
		return yield()
	}
	if len(rest) > 1 {
		// With one atom left there is nothing to rank: its count decides
		// nothing, and an empty extent yields nothing below either.
		best, bestCount := 0, -1
		for i, ai := range rest {
			a := r.body[ai]
			n := g.CountMatch(e.resolve(a.s), e.resolve(a.p), e.resolve(a.o))
			if bestCount < 0 || n < bestCount {
				best, bestCount = i, n
				if n == 0 {
					// An empty extent annihilates the join; no need to rank
					// the other atoms.
					return true
				}
			}
		}
		rest[0], rest[best] = rest[best], rest[0]
	}
	ai := rest[0]
	a := r.body[ai]
	tail := rest[1:]
	done := true
	g.ForEachMatch(e.resolve(a.s), e.resolve(a.p), e.resolve(a.o), func(t rdf.Triple) bool {
		if bound, ok := e.bindTriple(a, t); ok {
			if sc.rec && ai < len(sc.prem) {
				// Premises are keyed by body-atom index, not join order:
				// the selectivity reorder above shuffles rest, and the
				// round-trip verifier re-binds premises to body atoms.
				sc.prem[ai] = t
			}
			done = joinRest(g, sc, r, tail, e, yield)
			e.unbind(bound)
		}
		return done
	})
	return done
}
