package reason

import (
	"context"
	"testing"

	"powl/internal/obs"
	"powl/internal/rdf"
)

// chainFx builds an n-node transitive chain with its rule, the standard
// profiling workload: every engine fires rule "tr" many times.
func chainFx(n int) (*fx, []rdf.Triple) {
	f := newFx()
	p := f.id("p")
	ids := make([]rdf.ID, n)
	for i := range ids {
		ids[i] = f.dict.InternIRI("http://t/chain/" + string(rune('a'+i%26)) + string(rune('0'+i/26)))
	}
	var base []rdf.Triple
	for i := 0; i+1 < n; i++ {
		tr := rdf.Triple{S: ids[i], P: p, O: ids[i+1]}
		f.g.Add(tr)
		base = append(base, tr)
	}
	return f, base
}

// TestRuleProfilesMatchAcrossEngines: every engine, run under a rule
// collector, must attribute its work to the firing rule, and the profiled
// run must produce the same closure as the unprofiled one.
func TestRuleProfilesMatchAcrossEngines(t *testing.T) {
	for _, e := range []Engine{Forward{}, Rete{}, Hybrid{}, Hybrid{SharedTable: true}} {
		f, _ := chainFx(12)
		rs := f.parse(`[tr: (?x t:p ?y) (?y t:p ?z) -> (?x t:p ?z)]`)

		plain := f.g.Clone()
		if _, err := e.MaterializeCtx(context.Background(), plain, rs); err != nil {
			t.Fatal(err)
		}

		rc := &obs.RuleCollector{}
		ctx := obs.ContextWithRules(context.Background(), rc)
		profiled := f.g.Clone()
		if _, err := e.MaterializeCtx(ctx, profiled, rs); err != nil {
			t.Fatal(err)
		}

		if !plain.Equal(profiled) {
			t.Errorf("%s: profiled closure differs from plain closure", e.Name())
		}
		snap := rc.Snapshot()
		st, ok := snap["tr"]
		if !ok {
			t.Errorf("%s: rule tr missing from profile %v", e.Name(), snap)
			continue
		}
		if st.Firings == 0 {
			t.Errorf("%s: rule tr profiled zero firings", e.Name())
		}
		if st.Matches < st.Firings {
			t.Errorf("%s: matches %d < firings %d", e.Name(), st.Matches, st.Firings)
		}
	}
}

// TestProfilingDisabledIsNil: without a collector in the context the tally
// is nil — the entire per-activation cost of the disabled path is one nil
// check.
func TestProfilingDisabledIsNil(t *testing.T) {
	f, _ := chainFx(4)
	rs := f.parse(`[tr: (?x t:p ?y) (?y t:p ?z) -> (?x t:p ?z)]`)
	if p := newRuleProf(context.Background(), mustCompile(rs).rules); p != nil {
		t.Fatalf("newRuleProf without collector = %+v, want nil", p)
	}
	var nilProf *ruleProf
	nilProf.flush() // must not panic
}

// TestObsOverheadLogged measures the profiled-vs-plain forward
// materialization cost on a transitive chain. The ratio is logged, not
// asserted: timing on shared CI machines is too noisy for a hard gate, but
// the log line makes regressions visible in -v output. Locally the
// overhead sits well under the 5% budget because the hot path only touches
// an engine-local slice.
func TestObsOverheadLogged(t *testing.T) {
	if testing.Short() {
		t.Skip("overhead measurement skipped in -short")
	}
	const n = 64
	run := func(ctx context.Context) func(b *testing.B) {
		return func(b *testing.B) {
			f, _ := chainFx(n)
			rs := f.parse(`[tr: (?x t:p ?y) (?y t:p ?z) -> (?x t:p ?z)]`)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				g := f.g.Clone()
				b.StartTimer()
				if _, err := (Forward{}).MaterializeCtx(ctx, g, rs); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	plain := testing.Benchmark(run(context.Background()))
	profiled := testing.Benchmark(run(obs.ContextWithRules(context.Background(), &obs.RuleCollector{})))
	ratio := float64(profiled.NsPerOp()) / float64(plain.NsPerOp())
	t.Logf("forward materialize, %d-node chain: plain %v/op, profiled %v/op, ratio %.3f (budget 1.05)",
		n, plain.NsPerOp(), profiled.NsPerOp(), ratio)
}
