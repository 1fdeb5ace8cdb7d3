package reason

import (
	"context"
	"time"

	"powl/internal/rdf"
	"powl/internal/rules"
)

// Rete is a forward-chaining engine built as a Rete network (Forgy 1982) —
// the algorithm Jena's forward engine uses (paper §V). Each rule compiles
// into a chain of join nodes over alpha memories; asserting a triple
// right-activates the alpha nodes it matches and propagates tokens down the
// beta network; production nodes emit head instantiations, which are
// asserted recursively until fixpoint.
//
// Compared with the semi-naive Forward engine, Rete trades memory (alpha
// and beta memories persist all partial joins) for strictly incremental
// work per asserted triple; BenchmarkAblation_Engine compares them.
type Rete struct{}

// Name implements Engine.
func (Rete) Name() string { return "rete" }

// Materialize is MaterializeCtx without cancellation; it panics on a rule
// set Compile rejects (see must).
func (r Rete) Materialize(g *rdf.Graph, rs []rules.Rule) int {
	return must(r.MaterializeCtx(context.Background(), g, rs))
}

// MaterializeCtx implements Engine: the assert loop checks ctx between
// assertions, so cancellation lands within one network activation.
func (r Rete) MaterializeCtx(ctx context.Context, g *rdf.Graph, rs []rules.Rule) (int, error) {
	return r.materialize(ctx, g, rs, g.Triples())
}

// MaterializeFrom is MaterializeFromCtx without cancellation. Rete is
// inherently incremental — the network is rebuilt, loaded with the existing
// closure, and then only the seeds need asserting; assertion order is
// irrelevant because the memories make every join retroactive. (Rebuilding
// costs one pass over g; a long-lived network handle would amortize it, but
// the cluster worker API exchanges plain graphs.)
func (r Rete) MaterializeFrom(g *rdf.Graph, rs []rules.Rule, seeds []rdf.Triple) int {
	return must(r.MaterializeFromCtx(context.Background(), g, rs, seeds))
}

// MaterializeFromCtx implements Engine.
func (r Rete) MaterializeFromCtx(ctx context.Context, g *rdf.Graph, rs []rules.Rule, seeds []rdf.Triple) (int, error) {
	if len(seeds) == 0 {
		return 0, ctx.Err()
	}
	return r.materialize(ctx, g, rs, g.Triples())
}

// materialize asserts assertSet into a network built for rs. The engine's
// callers pass g's live triples, taken before the first emit: the network's
// emits grow g past them, which is safe — the set's contents never move.
func (Rete) materialize(ctx context.Context, g *rdf.Graph, rs []rules.Rule, assertSet []rdf.Triple) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	p, err := Compile(rs)
	if err != nil {
		return 0, err
	}
	net := buildNetwork(p)
	net.prof = newRuleProf(ctx, p.rules)
	defer net.prof.flush()

	added := 0
	var queue []rdf.Triple
	emit := func(t rdf.Triple) {
		if g.AddDerived(t, rdf.Derivation{}) {
			added++
			queue = append(queue, t)
		}
	}

	// With provenance on, tokens carry their premise triples down the beta
	// chain and the production site records which rule fired; emit turns
	// that into a derivation record. All asserted triples are already in g
	// (assertSet is the log, queue entries were just Added), so premise
	// offsets always resolve. Rete has no round structure; records carry
	// round 0.
	if rec := newDerivRecorder(g, p.rules); rec != nil {
		net.rec = true
		emit = func(t rdf.Triple) {
			idx := net.fireRule.idx
			if g.Has(t) {
				net.prof.addDerived(idx, 0, 1)
				return
			}
			if rec.add(t, capture(net.fireRule, net.firePrem), 0) {
				added++
				queue = append(queue, t)
				net.prof.addDerived(idx, 1, 0)
			}
		}
	}

	for i, t := range assertSet {
		if i&1023 == 1023 {
			if err := ctx.Err(); err != nil {
				return added, err
			}
		}
		net.assert(t, emit)
	}
	for n := 0; len(queue) > 0; n++ {
		if n&1023 == 1023 {
			if err := ctx.Err(); err != nil {
				return added, err
			}
		}
		t := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		net.assert(t, emit)
	}
	return added, nil
}

// --- network structures ------------------------------------------------------

// token is a partial binding flowing down a rule's beta chain. When the
// network records provenance, prem carries the triples bound to the first
// three body atoms, keyed by body-atom index, so the production site knows
// the premises of each firing without re-deriving them.
type token struct {
	env  env
	prem [3]rdf.Triple
}

// premExtend returns base with t recorded at body-atom index atomIdx
// (indices past the record width are derivable from the rule head and
// dropped).
func premExtend(base [3]rdf.Triple, atomIdx int, t rdf.Triple) [3]rdf.Triple {
	if atomIdx < len(base) {
		base[atomIdx] = t
	}
	return base
}

// alphaNode is the memory of one body atom: the triples that matched it,
// and the join node right-activated by each new one. Which alphas a triple
// meets is the Program's atom index's answer (see assert), so the node
// holds no pattern of its own.
type alphaNode struct {
	memory []rdf.Triple
	seen   map[rdf.Triple]struct{}
	join   *joinNode
}

// joinNode joins the tokens of the previous stage with one alpha memory.
// Stage 0 has no left input: tokens are created directly from the alpha.
type joinNode struct {
	rule    *cRule
	atomIdx int
	alpha   *alphaNode
	// leftMemory holds tokens produced by the previous stage (nil for the
	// first stage).
	leftMemory []token
	next       *joinNode
	// production fires when this is the last stage.
	production *cRule
	emitHeads  func(env, func(rdf.Triple))
}

// envArena bump-allocates the environments of tokens that persist in beta
// memories: envs are carved out of large shared blocks, so steady-state
// token creation costs one allocation per block instead of one per token.
// Arena envs live as long as the network; nothing is ever freed piecemeal.
type envArena struct {
	buf []rdf.ID
}

const envArenaBlock = 4096

func (a *envArena) alloc(n int) env {
	if cap(a.buf)-len(a.buf) < n {
		size := envArenaBlock
		if n > size {
			size = n
		}
		//powl:ignore allocfree amortized block refill: one make per 4096 IDs of successful beta matches, not per trial; AllocsPerRun pins the steady state at zero
		a.buf = make([]rdf.ID, 0, size)
	}
	start := len(a.buf)
	a.buf = a.buf[:start+n]
	return env(a.buf[start : start+n : start+n])
}

// network is the compiled Rete graph.
type network struct {
	// plans are the Program's strata, whose atom indexes pick the triggers
	// an asserted triple meets; alphas[id] is trigger id's alpha node.
	plans  []stratumPlan
	alphas []alphaNode
	// scratch is the trial-binding buffer: joins bind into it first and only
	// copy into an arena env when the binding succeeds, so failed joins
	// allocate nothing and successful ones allocate from the arena in bulk.
	scratch env
	arena   envArena
	// prof, when non-nil, tallies per-rule activations. Alphas are not
	// shared between rules here, so a right-activation (and the beta
	// cascade under it, which stays inside one rule's join chain) is
	// attributable to exactly one rule.
	prof *ruleProf
	// rec enables provenance capture: tokens carry premises, and the
	// production site publishes the firing rule and its premises here for
	// emit to read — the Rete analogue of forward's scratch fields.
	rec      bool
	fireRule *cRule
	firePrem [3]rdf.Triple
}

// buildNetwork makes one alpha node and one join node per trigger of p's
// plans. A plan lists each rule's body atoms consecutively and in order, so
// every rule's join nodes chain in body order.
func buildNetwork(p *Program) *network {
	net := &network{plans: p.plans, alphas: make([]alphaNode, p.ntr), scratch: make(env, p.maxSlot)}
	for s := range p.plans {
		var prev *joinNode
		for _, tr := range p.plans[s].trs {
			jn := &joinNode{rule: tr.rule, atomIdx: tr.atomIdx, alpha: &net.alphas[tr.id]}
			net.alphas[tr.id] = alphaNode{seen: map[rdf.Triple]struct{}{}, join: jn}
			if tr.atomIdx > 0 {
				prev.next = jn
			}
			if tr.atomIdx == len(tr.rule.body)-1 {
				jn.production = tr.rule
			}
			prev = jn
		}
	}
	return net
}

// assert feeds one triple through the network, calling emit for each head
// instantiation produced.
//
//powl:ignore wallclock per-rule profiling clock, same contract as fireShard.
func (n *network) assert(t rdf.Triple, emit func(rdf.Triple)) {
	for s := range n.plans {
		for _, tr := range n.plans[s].idx.lookup(t) {
			if !tr.rule.body[tr.atomIdx].subjectAgrees(t) {
				continue
			}
			if n.prof == nil {
				n.rightActivate(&n.alphas[tr.id], t, emit)
				continue
			}
			t0 := time.Now()
			n.rightActivate(&n.alphas[tr.id], t, emit)
			n.prof.time[tr.rule.idx] += time.Since(t0)
		}
	}
}

func (n *network) rightActivate(a *alphaNode, t rdf.Triple, emit func(rdf.Triple)) {
	if _, dup := a.seen[t]; dup {
		return
	}
	a.seen[t] = struct{}{}
	a.memory = append(a.memory, t)
	jn := a.join
	if jn.atomIdx == 0 {
		// First stage: the triple itself creates a token.
		if e, ok := n.tryExtend(nil, jn.rule, 0, t); ok {
			nt := token{env: e}
			if n.rec {
				nt.prem = premExtend(nt.prem, 0, t)
			}
			n.leftActivate(jn, nt, emit)
		}
		return
	}
	// Later stage: join the new right input against the left memory.
	for _, tok := range jn.leftMemory {
		if e, ok := n.tryExtend(tok.env, jn.rule, jn.atomIdx, t); ok {
			nt := token{env: e}
			if n.rec {
				nt.prem = premExtend(tok.prem, jn.atomIdx, t)
			}
			n.leftActivate(jn, nt, emit)
		}
	}
}

// tryExtend attempts to bind body atom atomIdx of r against t on top of the
// base environment (nil means all-unbound). The trial happens in the shared
// scratch buffer; only a successful binding is copied into a persistent
// arena env, so the (dominant) failing joins are allocation-free.
//
//powl:allocfree rete beta-join trial; only arena.alloc amortizes
func (n *network) tryExtend(base env, r *cRule, atomIdx int, t rdf.Triple) (env, bool) {
	sc := n.scratch[:r.nslot]
	if base == nil {
		for i := range sc {
			sc[i] = 0
		}
	} else {
		copy(sc, base)
	}
	if _, ok := sc.bindTriple(r.body[atomIdx], t); !ok {
		return nil, false
	}
	e := n.arena.alloc(r.nslot)
	copy(e, sc)
	return e, true
}

// leftActivate receives a completed token AT jn (i.e. jn's atom is already
// bound in the token) and either fires the production or extends the token
// into the next stage.
func (n *network) leftActivate(jn *joinNode, tok token, emit func(rdf.Triple)) {
	if jn.production != nil {
		if n.prof != nil {
			n.prof.matches[jn.production.idx]++
			n.prof.firings[jn.production.idx] += int64(len(jn.production.head))
		}
		if n.rec {
			n.fireRule = jn.production
			n.firePrem = tok.prem
		}
		for _, h := range jn.production.head {
			emit(tok.env.instantiate(h))
		}
	}
	next := jn.next
	if next == nil {
		return
	}
	next.leftMemory = append(next.leftMemory, tok)
	// Join against everything already in the next stage's alpha memory.
	for _, t := range next.alpha.memory {
		if e, ok := n.tryExtend(tok.env, next.rule, next.atomIdx, t); ok {
			nt := token{env: e}
			if n.rec {
				nt.prem = premExtend(tok.prem, next.atomIdx, t)
			}
			n.leftActivate(next, nt, emit)
		}
	}
}
