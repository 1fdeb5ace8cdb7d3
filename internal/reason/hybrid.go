package reason

import (
	"context"
	"sort"
	"time"

	"powl/internal/rdf"
	"powl/internal/rules"
)

// Hybrid materializes a KB the way the paper's §V describes Jena doing it:
// for each resource in the graph it issues the query "all triples with this
// resource as subject" against a tabled SLD backward engine, and stores the
// answers. Rule bodies are evaluated strictly left-to-right (SLD order,
// no boundness reordering), so rules whose leading body atom is unbound by
// the goal — e.g. the compiled allValuesFrom rule — scan a predicate extent
// of the whole partition. That per-query work grows with partition size,
// which is exactly the worst-case behaviour the paper observed on LUBM and
// MDC and exploited for super-linear speedups (§VI-A).
//
// Subgoals are tabled with Tarjan-style SCC completion: mutually recursive
// subgoals (e.g. transitive chains) are closed together by iterating their
// strongly connected component to fixpoint, then marked complete. By
// default the table is reset between resource queries (matching Jena's
// per-query tabling); SharedTable keeps one table for the whole
// materialization, removing most re-derivation — the ablation benchmark
// BenchmarkAblation_Tabling quantifies the difference.
type Hybrid struct {
	// SharedTable shares the subgoal table across all per-resource queries.
	SharedTable bool
	// Threads is forwarded to the forward engine MaterializeFrom delegates
	// to (see Forward.Threads). The full per-resource backward driver stays
	// single-threaded: its table is one mutable structure per
	// materialization, and its sequential per-query cost is the behaviour
	// the paper's experiments measure.
	Threads int
}

// Name implements Engine.
func (h Hybrid) Name() string {
	if h.SharedTable {
		return "hybrid-shared"
	}
	return "hybrid"
}

// Materialize is MaterializeCtx without cancellation; it panics on a rule
// set Compile rejects (see must).
func (h Hybrid) Materialize(g *rdf.Graph, rs []rules.Rule) int {
	return must(h.MaterializeCtx(context.Background(), g, rs))
}

// MaterializeCtx implements Engine: the per-resource query loop checks ctx
// before each resource, so cancellation lands within one backward query.
func (h Hybrid) MaterializeCtx(ctx context.Context, g *rdf.Graph, rs []rules.Rule) (int, error) {
	p, err := Compile(rs)
	if err != nil {
		return 0, err
	}
	prof := newRuleProf(ctx, p.rules)
	defer prof.flush()
	// The resource queries are (r, ·, ·) and the bodies are evaluated in
	// SLD order, so any index may be read.
	g.BuildIndexes(rdf.AllIndexes)

	// Query plan: every resource appearing as subject or object, in ID
	// order for determinism. Inference cannot invent constants, so every
	// closure triple's subject is already in this set.
	resSet := g.Resources()
	resources := make([]rdf.ID, 0, len(resSet))
	for r := range resSet {
		resources = append(resources, r)
	}
	sort.Slice(resources, func(i, j int) bool { return resources[i] < resources[j] })

	rec := newDerivRecorder(g, p.rules)
	added := 0
	var s *solver
	var pending []rdf.Triple
	for _, r := range resources {
		if err := ctx.Err(); err != nil {
			return added, err
		}
		if s == nil || !h.SharedTable {
			s = newSolver(g, p, prof, rec)
		}
		goal := rdf.Triple{S: r, P: rdf.Wildcard, O: rdf.Wildcard}
		e := s.solve(goal)
		pending = pending[:0]
		for t := range e.answers {
			if !g.Has(t) {
				// Defer insertion: the solver's base-fact scans iterate g.
				pending = append(pending, t)
			}
		}
		for _, t := range pending {
			if s.addDerived(t) {
				added++
			}
		}
	}
	return added, nil
}

// addDerived inserts a pending answer. With provenance on it carries the
// lineage the solver captured at yield time: backward-chained premises may
// themselves still be pending (tabled answers not yet inserted), so premise
// offsets resolve best-effort, while the rule attribution is always exact;
// the backward engines have no round structure, so records carry round 0.
// Without a captured lineage (provenance off, lin nil) the triple is still
// marked derived — the derived bit is what the provenance-off Retract
// fallback keys its delete-and-rematerialize on.
func (s *solver) addDerived(t rdf.Triple) bool {
	pd, ok := s.lin[t]
	if !ok {
		return s.g.AddDerived(t, rdf.Derivation{})
	}
	if !s.rec.add(t, pd, 0) {
		return false
	}
	s.prof.addDerived(pd.rule.idx, 1, 0)
	return true
}

// tableEntry is the memo record for one subgoal pattern.
type tableEntry struct {
	goal     rdf.Triple
	answers  map[rdf.Triple]struct{}
	active   bool // on the SLD stack (its SCC is still being computed)
	complete bool // answers are final
	depth    int  // Tarjan DFS index
	low      int  // Tarjan lowlink
}

// headRef locates one head atom of one rule.
type headRef struct {
	rule *cRule
	head int
}

type solver struct {
	g     *rdf.Graph
	rules []cRule
	table map[rdf.Triple]*tableEntry
	total int // total answers across all entries, for fixpoint detection
	stack []*tableEntry
	depth int
	// byHeadPred indexes head atoms by their constant predicate;
	// anyHeadPred lists heads with a variable predicate. Subgoals with a
	// bound predicate only resolve against heads that can produce it.
	byHeadPred  map[rdf.ID][]headRef
	anyHeadPred []headRef
	// prof, when non-nil, tallies per-rule work. Time is attributed to the
	// outermost rule resolution only (profDepth guards nesting), so the
	// per-rule times partition the solver's rule-evaluation time even
	// though SLD subgoal resolution recurses through other rules.
	prof      *ruleProf
	profDepth int
	// envPool recycles binding environments across rule resolutions. SLD
	// evaluation nests (a body atom's subgoal resolves other rules), so a
	// single scratch buffer would be clobbered; a stack of retired envs
	// keeps the steady state allocation-free instead.
	envPool []env
	maxSlot int
	// rec, when non-nil, enables provenance capture: each first derivation
	// of a non-base answer stores its rule and instantiated premises in
	// lin, which addDerived resolves through rec when the driver inserts
	// pending answers into the graph.
	rec *derivRecorder
	lin map[rdf.Triple]pendDeriv
}

func newSolver(g *rdf.Graph, p *Program, prof *ruleProf, rec *derivRecorder) *solver {
	s := &solver{g: g, rules: p.rules, table: map[rdf.Triple]*tableEntry{},
		byHeadPred: map[rdf.ID][]headRef{}, maxSlot: p.maxSlot, prof: prof, rec: rec}
	if rec != nil {
		s.lin = map[rdf.Triple]pendDeriv{}
	}
	for ri := range p.rules {
		r := &p.rules[ri]
		for hi, h := range r.head {
			if h.p.isVar {
				s.anyHeadPred = append(s.anyHeadPred, headRef{r, hi})
			} else {
				s.byHeadPred[h.p.id] = append(s.byHeadPred[h.p.id], headRef{r, hi})
			}
		}
	}
	return s
}

// getEnv pops a zeroed environment of the given width from the pool (or
// grows the pool by one buffer sized for the widest rule); putEnv retires it
// for reuse once a resolution completes.
func (s *solver) getEnv(n int) env {
	var e env
	if k := len(s.envPool); k > 0 {
		e = s.envPool[k-1]
		s.envPool = s.envPool[:k-1]
	} else {
		e = make(env, s.maxSlot)
	}
	e = e[:n]
	for i := range e {
		e[i] = 0
	}
	return e
}

func (s *solver) putEnv(e env) {
	s.envPool = append(s.envPool, e[:cap(e)])
}

func (s *solver) entry(goal rdf.Triple) *tableEntry {
	e := s.table[goal]
	if e == nil {
		e = &tableEntry{goal: goal, answers: map[rdf.Triple]struct{}{}}
		s.table[goal] = e
	}
	return e
}

// solve evaluates the subgoal pattern to completion unless it participates
// in an SCC still open higher up the stack, in which case the current
// partial answers are returned and the SCC leader finishes the job.
func (s *solver) solve(goal rdf.Triple) *tableEntry {
	e := s.entry(goal)
	if e.complete || e.active {
		return e
	}
	e.active = true
	s.depth++
	e.depth = s.depth
	e.low = e.depth
	s.stack = append(s.stack, e)
	stackPos := len(s.stack) - 1

	// Local fixpoint for this goal.
	for {
		before := s.total
		s.evaluateOnce(e)
		if s.total == before {
			break
		}
	}

	if e.low == e.depth {
		// e is its SCC's leader: close the whole component by iterating
		// every member until no member gains an answer, then complete them.
		// A pass can open a subgoal that joins the component (it consumes a
		// member's partial answers), so each pass rereads the members from
		// the stack: a member left out would be popped still active, and
		// every later solve of it would return its partial answers.
		for len(s.stack) > stackPos+1 {
			before := s.total
			for _, m := range s.stack[stackPos:] {
				s.evaluateOnce(m)
			}
			if s.total == before {
				break
			}
		}
		for _, m := range s.stack[stackPos:] {
			m.complete = true
			m.active = false
		}
		s.stack = s.stack[:stackPos]
	}
	return e
}

// evaluateOnce runs one resolution pass for e's goal: base facts plus every
// rule whose head unifies, with bodies evaluated left-to-right.
//
//powl:ignore wallclock per-rule profiling clock, same contract as fireShard.
func (s *solver) evaluateOnce(e *tableEntry) {
	goal := e.goal
	s.g.ForEachMatch(goal.S, goal.P, goal.O, func(t rdf.Triple) bool {
		s.addAnswer(e, t)
		return true
	})
	resolve := func(ref headRef) {
		r := ref.rule
		hAtom := r.head[ref.head]
		env := s.getEnv(r.nslot)
		defer s.putEnv(env)
		if !unifyGoal(hAtom, goal, env) {
			return
		}
		if s.prof == nil {
			s.evalBody(e, r, 0, env, func() {
				t := env.instantiate(hAtom)
				if matchesGoal(t, goal) {
					if s.rec != nil {
						s.captureLin(r, env, t)
					}
					s.addAnswer(e, t)
				}
			})
			return
		}
		outer := s.profDepth == 0
		var t0 time.Time
		if outer {
			t0 = time.Now()
		}
		s.profDepth++
		s.evalBody(e, r, 0, env, func() {
			s.prof.matches[r.idx]++
			t := env.instantiate(hAtom)
			if matchesGoal(t, goal) {
				s.prof.firings[r.idx]++
				if s.rec != nil {
					s.captureLin(r, env, t)
				}
				s.addAnswer(e, t)
			}
		})
		s.profDepth--
		if outer {
			s.prof.time[r.idx] += time.Since(t0)
		}
	}
	if goal.P != rdf.Wildcard {
		for _, ref := range s.byHeadPred[goal.P] {
			resolve(ref)
		}
		for _, ref := range s.anyHeadPred {
			resolve(ref)
		}
		return
	}
	for ri := range s.rules {
		r := &s.rules[ri]
		for hi := range r.head {
			resolve(headRef{r, hi})
		}
	}
}

// captureLin records t's first derivation: the rule plus its premises,
// instantiated from the fully-bound environment in body-atom order. Base
// triples (already in g) need no record, and the first derivation wins, to
// match the graph-side first-wins discipline.
func (s *solver) captureLin(r *cRule, en env, t rdf.Triple) {
	if s.g.Has(t) {
		return
	}
	if _, ok := s.lin[t]; ok {
		return
	}
	var prem [3]rdf.Triple
	for i := range min(len(r.body), len(prem)) {
		prem[i] = en.instantiate(r.body[i])
	}
	s.lin[t] = capture(r, prem)
}

func (s *solver) addAnswer(e *tableEntry, t rdf.Triple) {
	if _, ok := e.answers[t]; !ok {
		e.answers[t] = struct{}{}
		s.total++
	}
}

// evalBody runs the rule body strictly left-to-right (SLD order) under env,
// calling yield for each complete derivation. Lowlinks propagate from
// subgoals still on the stack, so mutually recursive goals end up in one
// SCC.
func (s *solver) evalBody(e *tableEntry, r *cRule, i int, en env, yield func()) {
	if i == len(r.body) {
		yield()
		return
	}
	a := r.body[i]
	sub := rdf.Triple{S: en.resolve(a.s), P: en.resolve(a.p), O: en.resolve(a.o)}
	se := s.solve(sub)
	if se.active && se.low < e.low {
		e.low = se.low
	}
	// Recursive solve calls underneath may grow se.answers while we range
	// over it; Go permits that (new entries may or may not be visited), and
	// the enclosing fixpoint loops pick up any answers missed here.
	for t := range se.answers {
		if bound, ok := en.bindTriple(a, t); ok {
			s.evalBody(e, r, i+1, en, yield)
			en.unbind(bound)
		}
	}
}

// unifyGoal binds head-atom variables from the goal's bound positions and
// checks constants; it reports whether the head can produce goal matches.
func unifyGoal(h cAtom, goal rdf.Triple, e env) bool {
	for _, pv := range [3]struct {
		term slotTerm
		val  rdf.ID
	}{{h.s, goal.S}, {h.p, goal.P}, {h.o, goal.O}} {
		if pv.val == rdf.Wildcard {
			continue
		}
		if !pv.term.isVar {
			if pv.term.id != pv.val {
				return false
			}
			continue
		}
		if cur := e[pv.term.slot]; cur != 0 && cur != pv.val {
			return false
		}
		e[pv.term.slot] = pv.val
	}
	return true
}

func matchesGoal(t, goal rdf.Triple) bool {
	return (goal.S == rdf.Wildcard || goal.S == t.S) &&
		(goal.P == rdf.Wildcard || goal.P == t.P) &&
		(goal.O == rdf.Wildcard || goal.O == t.O)
}
