package reason_test

import (
	"context"
	"slices"
	"testing"

	"powl/internal/datagen"
	"powl/internal/obs"
	"powl/internal/owlhorst"
	"powl/internal/rdf"
	"powl/internal/reason"
	"powl/internal/vocab"
)

// TestDispatchMatchesReference pins what the atom index and per-sweep
// pruning may change in a one-thread closure: nothing but the sweep numbers.
// On LUBM and UOBM with provenance on, the log is identical to a run through
// the predicate-only reference dispatch with no pruning, and every offset
// records the same rule, premises and alternate; Round may only be lower,
// by the empty sweeps the new routing skips.
func TestDispatchMatchesReference(t *testing.T) {
	for _, fx := range parallelFixtures(t) {
		got, ref := fx.base(true), fx.base(true)
		if _, err := (reason.Forward{Threads: 1}).MaterializeCtx(context.Background(), got, fx.rs); err != nil {
			t.Fatal(err)
		}
		if _, err := reason.MaterializeReferenceDispatch(context.Background(), ref, fx.rs); err != nil {
			t.Fatal(err)
		}
		lg, lr := got.TriplesSince(0), ref.TriplesSince(0)
		if !slices.Equal(lg, lr) {
			t.Fatalf("%s: logs differ (%d and %d triples)", fx.name, len(lg), len(lr))
		}
		pg, pr := got.Prov(), ref.Prov()
		if !slices.Equal(pg.RuleNames(), pr.RuleNames()) {
			t.Fatalf("%s: rule tables differ: %v vs %v", fx.name, pg.RuleNames(), pr.RuleNames())
		}
		sameButRound := func(what string, off int, dg, dr rdf.Derivation) {
			t.Helper()
			if dg.Round > dr.Round {
				t.Errorf("%s: offset %d %s fired in sweep %d, after the reference's %d", fx.name, off, what, dg.Round, dr.Round)
			}
			dg.Round, dr.Round = 0, 0
			if dg != dr {
				t.Errorf("%s: offset %d %s %+v, reference %+v", fx.name, off, what, dg, dr)
			}
		}
		alts := 0
		for off := range lg {
			sameButRound("records", off, pg.At(uint32(off)), pr.At(uint32(off)))
			ag, okg := pg.AltAt(uint32(off))
			ar, okr := pr.AltAt(uint32(off))
			if okg != okr {
				t.Errorf("%s: offset %d has an alternate in one run only", fx.name, off)
			}
			if okg && okr {
				alts++
				sameButRound("alternate", off, ag, ar)
			}
		}
		if alts == 0 {
			t.Errorf("%s: no alternate derivations recorded; the test would not compare them", fx.name)
		}
	}
}

// activationsPerDelta sums a closure's piece spans: rule activations per
// delta triple fired.
func activationsPerDelta(t *testing.T, spans []obs.PieceSpan) float64 {
	t.Helper()
	var acts, delta int
	for _, sp := range spans {
		acts += sp.Activations
		delta += sp.Delta
	}
	if delta == 0 {
		t.Fatal("no delta triples fired")
	}
	return float64(acts) / float64(delta)
}

// TestOneThreadActivationsPerDelta pins the dispatch's efficiency on the
// journal: a one-thread LUBM closure activates at most two rule bodies per
// delta triple. Through the predicate-only dispatch every rdf:type triple
// activated each of the ≈ 50 atoms on rdf:type, ≈ 16 per delta triple.
func TestOneThreadActivationsPerDelta(t *testing.T) {
	fx := parallelFixtures(t)[0] // lubm
	run := func(materialize func(context.Context, *rdf.Graph) error) float64 {
		pc := &obs.PieceCollector{}
		if err := materialize(obs.ContextWithPieces(context.Background(), pc), fx.base(false)); err != nil {
			t.Fatal(err)
		}
		return activationsPerDelta(t, pc.Snapshot())
	}
	got := run(func(ctx context.Context, g *rdf.Graph) error {
		_, err := reason.Forward{Threads: 1}.MaterializeCtx(ctx, g, fx.rs)
		return err
	})
	ref := run(func(ctx context.Context, g *rdf.Graph) error {
		_, err := reason.MaterializeReferenceDispatch(ctx, g, fx.rs)
		return err
	})
	t.Logf("activations per delta triple: %.2f (predicate-only dispatch: %.2f)", got, ref)
	if got > 2 {
		t.Errorf("%.2f activations per delta triple, want ≤ 2", got)
	}
}

// BenchmarkCompile measures compiling LUBM's instance rules into a Program —
// lowering, strata plans and atom indexes, head index — the set-up every
// Engine method pays per call and a holder of a Program pays once.
func BenchmarkCompile(b *testing.B) {
	ds := datagen.LUBM(datagen.LUBMConfig{Universities: 1, Seed: 1})
	rs := owlhorst.Compile(ds.Dict, ds.Graph).InstanceRules
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reason.Compile(rs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCloseOneTriple measures the live writer's insert close with the
// compile paid once: each iteration asserts one new rdf:type triple — a
// fresh individual typed GraduateStudent, which the rules also make a
// Student and a Person — into a closed LUBM-1 KB and closes it through a
// Program compiled before the timer starts.
func BenchmarkCloseOneTriple(b *testing.B) {
	ds := datagen.LUBM(datagen.LUBMConfig{Universities: 1, Seed: 1})
	compiled := owlhorst.Compile(ds.Dict, ds.Graph)
	g := compiled.Start(ds.Graph)
	p, err := reason.Compile(compiled.InstanceRules)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if _, err := (reason.Forward{}).Fire(ctx, g, p, g.TriplesSince(0)); err != nil {
		b.Fatal(err)
	}
	typ := ds.Dict.InternIRI(vocab.RDFType)
	grad := ds.Dict.InternIRI("http://benchmark.powl/lubm#GraduateStudent")
	// IDs past the dictionary's name individuals no triple mentions yet.
	fresh := rdf.ID(ds.Dict.Len() + 1)
	seed := make([]rdf.Triple, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seed[0] = rdf.Triple{S: fresh + rdf.ID(i), P: typ, O: grad}
		g.Add(seed[0])
		if n, err := (reason.Forward{}).Fire(ctx, g, p, seed); err != nil || n == 0 {
			b.Fatalf("close added %d triples: %v", n, err)
		}
	}
}
