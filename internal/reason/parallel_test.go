// Equality and accounting tests for the fire loop at every thread count.
// Run them under -race (the CI race job does): the fire phase's concurrent
// graph reads against the caller-only commit phase is precisely the
// discipline the race detector can falsify.
//
// External test package: owlhorst imports reason, so importing owlhorst
// from package reason would cycle.
package reason_test

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"powl/internal/datagen"
	"powl/internal/obs"
	"powl/internal/owlhorst"
	"powl/internal/rdf"
	"powl/internal/reason"
	"powl/internal/refclosure"
	"powl/internal/rules"
)

// parallelFixture is one dataset the equality tests close: base builds a
// fresh unclosed graph (instance + schema) so every engine run starts from
// an identical state.
type parallelFixture struct {
	name   string
	rs     []rules.Rule
	schema func(prov bool) *rdf.Graph // the compiled schema alone
	base   func(prov bool) *rdf.Graph // schema + instance, unclosed
	seeds  []rdf.Triple               // the instance triples
}

func parallelFixtures(t *testing.T) []parallelFixture {
	t.Helper()
	var out []parallelFixture
	build := func(name string, ds *datagen.Dataset) {
		compiled := owlhorst.Compile(ds.Dict, ds.Graph)
		instance := owlhorst.SplitInstance(ds.Dict, ds.Graph)
		schema := func(prov bool) *rdf.Graph {
			g := rdf.NewGraph()
			if prov {
				g.EnableProv()
			}
			g.Union(compiled.Schema)
			return g
		}
		out = append(out, parallelFixture{
			name:   name,
			rs:     compiled.InstanceRules,
			schema: schema,
			base: func(prov bool) *rdf.Graph {
				g := schema(prov)
				g.AddAll(instance)
				return g
			},
			seeds: instance,
		})
	}
	build("lubm", datagen.LUBM(datagen.LUBMConfig{Universities: 1, Seed: 7, DeptsPerUniv: 2}))
	build("uobm", datagen.UOBM(datagen.UOBMConfig{Universities: 1, Seed: 7, DeptsPerUniv: 2}))
	return out
}

// referenceClosure is the oracle of the equivalence tests: the closure of
// base under the fixture's rules, computed by package refclosure — its own
// store, its own matcher, nothing shared with package reason — mapped to
// whether each triple is derived (closure − base) or asserted.
func referenceClosure(fx parallelFixture, base *rdf.Graph) map[rdf.Triple]bool {
	ref := refclosure.Closure(base.Triples(), fx.rs)
	want := make(map[rdf.Triple]bool, len(ref))
	for tr := range ref {
		want[tr] = !base.Has(tr)
	}
	return want
}

// closureSet maps every live triple to whether the engine derived it — the
// two facts the determinism contract fixes at every thread count.
func closureSet(g *rdf.Graph) map[rdf.Triple]bool {
	out := make(map[rdf.Triple]bool, g.Len())
	for off, t := range g.Triples() {
		out[t] = g.IsDerivedOffset(uint32(off))
	}
	return out
}

func diffClosure(t *testing.T, label string, want, got map[rdf.Triple]bool) {
	t.Helper()
	if len(want) != len(got) {
		t.Errorf("%s: closure size %d, reference %d", label, len(got), len(want))
	}
	missing, extra, flipped := 0, 0, 0
	for tr, derived := range want {
		gd, ok := got[tr]
		switch {
		case !ok:
			missing++
		case gd != derived:
			flipped++
		}
	}
	for tr := range got {
		if _, ok := want[tr]; !ok {
			extra++
		}
	}
	if missing != 0 || extra != 0 || flipped != 0 {
		t.Errorf("%s: closure diverges from the reference: %d missing, %d extra, %d derived-bit flips",
			label, missing, extra, flipped)
	}
}

// TestParallelMaterializeEquivalence closes lubm and uobm Quick at
// Threads ∈ {1, 2, 4}, with and without provenance, and checks the closure
// (and derived partition) is set-identical to the independent reference
// evaluator's — not to another run of the fire loop, which would make the
// one-shard path its own oracle. With provenance on, every recorded
// derivation must also round-trip through the verifier — "provenance
// set-identical" in the contract's sense: same derived set, every record
// valid.
func TestParallelMaterializeEquivalence(t *testing.T) {
	for _, fx := range parallelFixtures(t) {
		want := referenceClosure(fx, fx.base(false))
		derived := 0
		for _, d := range want {
			if d {
				derived++
			}
		}
		for _, prov := range []bool{false, true} {
			for _, threads := range []int{1, 2, 4} {
				label := fmt.Sprintf("%s/prov=%v/threads=%d", fx.name, prov, threads)
				g := fx.base(prov)
				n := reason.Forward{Threads: threads}.Materialize(g, fx.rs)
				if n != derived {
					t.Errorf("%s: added %d triples, reference derives %d", label, n, derived)
				}
				diffClosure(t, label, want, closureSet(g))
				if prov {
					verifyAllDerived(t, g, fx.rs)
				}
			}
		}
	}
}

// TestParallelIncrementalEquivalence exercises the MaterializeFrom path the
// live-serving writer uses: close a graph missing a slice of its instance
// triples, then insert the slice and close incrementally at each thread
// count, provenance off and on. The fixpoint must match the reference
// closure of the whole input, derived partition included.
func TestParallelIncrementalEquivalence(t *testing.T) {
	fx := parallelFixtures(t)[0] // lubm
	want := referenceClosure(fx, fx.base(false))

	hold := len(fx.seeds) / 10
	for _, prov := range []bool{false, true} {
		for _, threads := range []int{1, 2, 4} {
			label := fmt.Sprintf("prov=%v/threads=%d", prov, threads)
			g := fx.schema(prov)
			g.AddAll(fx.seeds[hold:])
			f := reason.Forward{Threads: threads}
			f.Materialize(g, fx.rs)
			// A held-out triple the first close already derived keeps its
			// derived bit when it is asserted afterwards (Add is a no-op),
			// so this run's expectation flips exactly those.
			wantRun := make(map[rdf.Triple]bool, len(want))
			for tr, d := range want {
				wantRun[tr] = d
			}
			seeds := make([]rdf.Triple, 0, hold)
			for _, tr := range fx.seeds[:hold] {
				if g.Add(tr) {
					seeds = append(seeds, tr)
				} else {
					wantRun[tr] = true
				}
			}
			f.MaterializeFrom(g, fx.rs, seeds)
			diffClosure(t, label, wantRun, closureSet(g))
			if prov {
				verifyAllDerived(t, g, fx.rs)
			}
		}
	}
}

// TestOneThreadClosureIsReproducible pins the one-shard determinism
// contract: two closures of the same input at Threads 0 (and at 1), with
// and without provenance, produce byte-identical logs, and with provenance
// on the same recorded derivation for every derived triple. Triggers are
// dispatched in rule order, conclusions staged in firing order and
// committed in staging order — nothing on the path iterates a Go map.
func TestOneThreadClosureIsReproducible(t *testing.T) {
	fx := parallelFixtures(t)[0] // lubm
	for _, threads := range []int{0, 1} {
		for _, prov := range []bool{false, true} {
			label := fmt.Sprintf("threads=%d/prov=%v", threads, prov)
			a, b := fx.base(prov), fx.base(prov)
			reason.Forward{Threads: threads}.Materialize(a, fx.rs)
			reason.Forward{Threads: threads}.Materialize(b, fx.rs)
			la, lb := a.TriplesSince(0), b.TriplesSince(0)
			if len(la) != len(lb) {
				t.Fatalf("%s: logs have %d and %d triples", label, len(la), len(lb))
			}
			for off := range la {
				if la[off] != lb[off] {
					t.Fatalf("%s: logs diverge at offset %d: %v vs %v", label, off, la[off], lb[off])
				}
				if !prov || !a.IsDerivedOffset(uint32(off)) {
					continue
				}
				lina, _ := a.LineageOf(la[off])
				linb, _ := b.LineageOf(lb[off])
				if !reflect.DeepEqual(lina, linb) {
					t.Fatalf("%s: offset %d recorded %+v in one run and %+v in the other", label, off, lina, linb)
				}
			}
		}
	}
}

// TestParallelProfileReconciles pins the journal-count side of the
// contract: with a rule collector and piece collector attached, the
// per-rule derived tallies must sum to the triples actually added, the
// per-piece spans must account for the same total, and the shards' rule
// activations must fold to exactly what one shard makes.
func TestParallelProfileReconciles(t *testing.T) {
	fx := parallelFixtures(t)[0] // lubm
	g := fx.base(true)
	rc := &obs.RuleCollector{}
	pc := &obs.PieceCollector{}
	ctx := obs.ContextWithPieces(obs.ContextWithRules(context.Background(), rc), pc)
	added, err := reason.Forward{Threads: 4}.MaterializeCtx(ctx, g, fx.rs)
	if err != nil {
		t.Fatal(err)
	}
	if added == 0 {
		t.Fatal("fixture derived nothing; the test would measure nothing")
	}
	var derived, firings int64
	for _, st := range rc.Snapshot() {
		derived += st.Derived
		firings += st.Firings
	}
	if derived != int64(added) {
		t.Errorf("rule profiles report %d derived, engine added %d", derived, added)
	}
	if firings < derived {
		t.Errorf("rule profiles report %d firings < %d derived", firings, derived)
	}
	spans := pc.Snapshot()
	if len(spans) == 0 {
		t.Fatal("no piece spans recorded")
	}
	spanDerived, acts := 0, 0
	for _, sp := range spans {
		spanDerived += sp.Derived
		acts += sp.Activations
		if sp.Threads != 4 {
			t.Errorf("span records %d threads, want 4", sp.Threads)
		}
	}
	if spanDerived != added {
		t.Errorf("piece spans account for %d derived, engine added %d", spanDerived, added)
	}
	// Every sweep fires the same delta set against the same graph at any
	// thread count, so the shards' folded activations equal one shard's.
	one := &obs.PieceCollector{}
	if _, err := (reason.Forward{Threads: 1}).MaterializeCtx(obs.ContextWithPieces(context.Background(), one), fx.base(true), fx.rs); err != nil {
		t.Fatal(err)
	}
	acts1 := 0
	for _, sp := range one.Snapshot() {
		acts1 += sp.Activations
	}
	if acts == 0 || acts != acts1 {
		t.Errorf("4 shards made %d activations, one shard %d", acts, acts1)
	}
}

// wideRule returns a rule with more variables than the engines' maxSlots
// (64): 22 three-variable atoms bind 66 distinct variables.
func wideRule() rules.Rule {
	r := rules.Rule{Name: "too-wide"}
	v := 0
	for i := 0; i < 22; i++ {
		r.Body = append(r.Body, rules.Atom{
			S: rules.Var(fmt.Sprintf("v%d", v)),
			P: rules.Var(fmt.Sprintf("v%d", v+1)),
			O: rules.Var(fmt.Sprintf("v%d", v+2)),
		})
		v += 3
	}
	r.Head = append(r.Head, rules.Atom{
		S: rules.Var("v0"), P: rules.Var("v1"), O: rules.Var("v2"),
	})
	return r
}

// TestCompileRejectsUnsafeRule: a head variable the body never binds is
// rejected by Compile, with the rule's name, so the engines return the error
// instead of deriving a triple whose unbound position is term ID 0
// (rdf.Wildcard).
func TestCompileRejectsUnsafeRule(t *testing.T) {
	x, y, z := rules.Var("x"), rules.Var("y"), rules.Var("z")
	p := rules.Const(2)
	unsafe := []rules.Rule{{
		Name: "unsafe",
		Body: []rules.Atom{{S: x, P: p, O: y}},
		Head: []rules.Atom{{S: x, P: p, O: z}},
	}}
	_, err := reason.Compile(unsafe)
	if err == nil || !strings.Contains(err.Error(), `"unsafe"`) {
		t.Fatalf("Compile(%v) = %v, want an error naming the rule", unsafe[0], err)
	}
	g := rdf.NewGraph()
	g.Add(rdf.Triple{S: 1, P: 2, O: 3})
	if _, err := (reason.Forward{}).MaterializeCtx(context.Background(), g, unsafe); err == nil {
		t.Error("Forward.MaterializeCtx accepted the unsafe rule")
	}
	if g.Len() != 1 || g.Has(rdf.Triple{S: 1, P: 2, O: rdf.Wildcard}) {
		t.Errorf("graph changed to %v", g.Triples())
	}
}

// TestValidateRulesTooWide pins the satellite bugfix: a rule exceeding
// maxSlots variables must surface as an error from validation and from the
// cancellable materialize entry points — not as a panic inside a live
// server's writer loop.
func TestValidateRulesTooWide(t *testing.T) {
	bad := []rules.Rule{wideRule()}
	if err := reason.ValidateRules(bad); err == nil {
		t.Fatal("ValidateRules accepted a 66-variable rule")
	}
	if err := reason.ValidateRules(nil); err != nil {
		t.Fatalf("ValidateRules rejected an empty rule set: %v", err)
	}
	g := rdf.NewGraph()
	g.Add(rdf.Triple{S: 1, P: 2, O: 3})
	if _, err := (reason.Forward{}).MaterializeCtx(context.Background(), g, bad); err == nil {
		t.Error("Forward.MaterializeCtx accepted the rule set")
	}
	if _, err := (reason.Forward{Threads: 4}).MaterializeCtx(context.Background(), g, bad); err == nil {
		t.Error("parallel Forward.MaterializeCtx accepted the rule set")
	}
	if _, err := (reason.Hybrid{}).MaterializeCtx(context.Background(), g, bad); err == nil {
		t.Error("Hybrid.MaterializeCtx accepted the rule set")
	}
	if _, err := (reason.Rete{}).MaterializeCtx(context.Background(), g, bad); err == nil {
		t.Error("Rete.MaterializeCtx accepted the rule set")
	}
}

// TestMaterializeFromPanicsOnInvalidRules: the convenience incremental close
// has nowhere to return a compile error, so every engine panics on a rule
// set Compile rejects, as the Engine doc promises — none may return 0 as if
// the seeds derived nothing.
func TestMaterializeFromPanicsOnInvalidRules(t *testing.T) {
	type incremental interface {
		MaterializeFrom(*rdf.Graph, []rules.Rule, []rdf.Triple) int
	}
	seed := rdf.Triple{S: 1, P: 2, O: 3}
	for _, e := range []incremental{reason.Forward{}, reason.Rete{}, reason.Hybrid{}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%T%+v: MaterializeFrom returned on a 66-variable rule", e, e)
				}
			}()
			g := rdf.NewGraph()
			g.Add(seed)
			e.MaterializeFrom(g, []rules.Rule{wideRule()}, []rdf.Triple{seed})
		}()
	}
}

// TestProgramSharedAcrossGraphs: a Program is immutable after Compile, so
// one Program closes two graphs concurrently — provenance off and on,
// several shards each — and both reach the reference closure. The race
// detector (the CI race job runs this package) checks the sharing.
func TestProgramSharedAcrossGraphs(t *testing.T) {
	fx := parallelFixtures(t)[0] // lubm
	p, err := reason.Compile(fx.rs)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceClosure(fx, fx.base(false))
	graphs := []*rdf.Graph{fx.base(false), fx.base(true)}
	errs := make([]error, len(graphs))
	var wg sync.WaitGroup
	for i, g := range graphs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = reason.Forward{Threads: 2}.Fire(context.Background(), g, p, g.TriplesSince(0))
		}()
	}
	wg.Wait()
	for i, g := range graphs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		diffClosure(t, fmt.Sprintf("graph %d", i), want, closureSet(g))
	}
	verifyAllDerived(t, graphs[1], fx.rs)
}

// TestRetractorSetProgram pins the scratch-sizing regression: a Retractor
// built for a narrow rule set, swapped to a wider Program with SetProgram,
// must rederive through the wider rules without indexing past its
// environment. When the Retractor sized its env once at construction, a
// rederive after a rule-set change could index past it.
func TestRetractorSetProgram(t *testing.T) {
	const (
		pLink = rdf.ID(1)
		pNear = rdf.ID(2)
		pFar  = rdf.ID(3)
	)
	narrow := []rules.Rule{{
		Name: "near",
		Body: []rules.Atom{{S: rules.Var("x"), P: rules.Const(pLink), O: rules.Var("y")}},
		Head: []rules.Atom{{S: rules.Var("x"), P: rules.Const(pNear), O: rules.Var("y")}},
	}}
	// Wider: three variables and a two-atom body, so both the binding env
	// and the head-index shape change.
	wide := append(narrow, rules.Rule{
		Name: "far",
		Body: []rules.Atom{
			{S: rules.Var("x"), P: rules.Const(pLink), O: rules.Var("y")},
			{S: rules.Var("y"), P: rules.Const(pLink), O: rules.Var("z")},
		},
		Head: []rules.Atom{{S: rules.Var("x"), P: rules.Const(pFar), O: rules.Var("z")}},
	})

	g := rdf.NewGraph()
	g.EnableProv()
	asserted := []rdf.Triple{
		{S: 10, P: pLink, O: 11},
		{S: 11, P: pLink, O: 12},
		{S: 12, P: pLink, O: 13},
	}
	g.AddAll(asserted)
	ret := reason.NewRetractor(narrow)
	reason.Forward{}.Materialize(g, narrow)

	wp, err := reason.Compile(wide)
	if err != nil {
		t.Fatal(err)
	}
	ret.SetProgram(wp)
	if _, err := (reason.Forward{}).Fire(context.Background(), g, wp, g.Triples()); err != nil {
		t.Fatal(err)
	}
	if !g.Has(rdf.Triple{S: 10, P: pFar, O: 12}) {
		t.Fatal("wide closure missing far(10,12)")
	}

	// Deleting link(11,12) must drop far(10,12) and far(11,13) — the
	// rederive joins the wide rule's two-atom body through the env sized by
	// SetProgram.
	st := ret.Retract(g, []rdf.Triple{{S: 11, P: pLink, O: 12}})
	if st.Requested != 1 {
		t.Fatalf("retract found %d of 1 requested", st.Requested)
	}
	if g.Has(rdf.Triple{S: 10, P: pFar, O: 12}) || g.Has(rdf.Triple{S: 11, P: pFar, O: 13}) {
		t.Error("far conclusions of the deleted link survived")
	}
	if !g.Has(rdf.Triple{S: 12, P: pNear, O: 13}) {
		t.Error("near(12,13) should survive: its premise is live")
	}
	if _, err := reason.Compile([]rules.Rule{wideRule()}); err == nil {
		t.Error("Compile accepted a 66-variable rule")
	}
}

// TestThreadsBuildVariablePredicateIndexes closes, on two shards, a graph
// whose variable-predicate rule can fire only once an earlier sweep has
// derived its owl:sameAs-like premise. Before the run the graph has no
// index; the fire loop builds the join indexes up front and byS and byO
// between sweeps, when the rule comes alive, each before the shards fan
// out. The closure must equal the reference one; run it under -race.
func TestThreadsBuildVariablePredicateIndexes(t *testing.T) {
	const link, same = rdf.ID(1), rdf.ID(2)
	x, y, p, z := rules.Var("x"), rules.Var("y"), rules.Var("p"), rules.Var("z")
	rs := []rules.Rule{
		{Name: "alias", Body: []rules.Atom{{S: x, P: rules.Const(link), O: y}},
			Head: []rules.Atom{{S: x, P: rules.Const(same), O: y}}},
		{Name: "same-subj", Body: []rules.Atom{{S: x, P: rules.Const(same), O: y}, {S: x, P: p, O: z}},
			Head: []rules.Atom{{S: y, P: p, O: z}}},
	}
	g := rdf.NewGraph()
	for n := rdf.ID(100); n < 140; n++ {
		for a := rdf.ID(3); a < 13; a++ {
			g.Add(rdf.Triple{S: n, P: a, O: 1000 + n*16 + a})
		}
		if n%2 == 0 {
			g.Add(rdf.Triple{S: n, P: link, O: n + 1})
		}
	}
	if g.Indexes() != 0 {
		t.Fatalf("a loaded graph has indexes %05b", g.Indexes())
	}
	want := refclosure.Closure(g.Triples(), rs)
	reason.Forward{Threads: 2}.Materialize(g, rs)
	if g.Indexes() != rdf.AllIndexes {
		t.Errorf("after a sweep that joined (?x ?p ?z), indexes are %05b", g.Indexes())
	}
	got := g.Triples()
	if len(got) != len(want) {
		t.Fatalf("closure has %d triples, reference %d", len(got), len(want))
	}
	for _, tr := range got {
		if _, ok := want[tr]; !ok {
			t.Fatalf("closure holds %v, which the reference lacks", tr)
		}
	}
}
