package reason

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"powl/internal/obs"
	"powl/internal/rdf"
	"powl/internal/rules"
)

// bigChain builds a long transitive chain whose closure is quadratic, so
// materialization does enough work for mid-flight cancellation to land.
func bigChain(n int) (*rdf.Graph, []rules.Rule) {
	dict := rdf.NewDict()
	g := rdf.NewGraph()
	p := dict.InternIRI("http://t/p")
	prev := dict.InternIRI("http://t/n0")
	for i := 1; i < n; i++ {
		cur := dict.InternIRI(fmt.Sprintf("http://t/n%d", i))
		g.Add(rdf.Triple{S: prev, P: p, O: cur})
		prev = cur
	}
	rs := rules.MustParse(
		"@prefix t: <http://t/> .\n[tr: (?x t:p ?y) (?y t:p ?z) -> (?x t:p ?z)]", dict)
	return g, rs
}

func ctxEngines() []plainEngine {
	return []plainEngine{Forward{}, Rete{}, Hybrid{}, Hybrid{SharedTable: true}}
}

func TestMaterializeCtxCancelledUpFront(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, e := range ctxEngines() {
		g, rs := bigChain(64)
		n, err := e.MaterializeCtx(ctx, g, rs)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want Canceled", e.Name(), err)
		}
		// A cancelled run may have partial results but must stop early.
		if n == 63*62/2 {
			t.Errorf("%s: cancelled run completed the full closure", e.Name())
		}
	}
}

func TestMaterializeCtxBackgroundMatchesPlain(t *testing.T) {
	for _, e := range ctxEngines() {
		g1, rs := bigChain(32)
		g2 := g1.Clone()
		want := e.Materialize(g1, rs)
		got, err := e.MaterializeCtx(context.Background(), g2, rs)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if got != want || !g1.Equal(g2) {
			t.Errorf("%s: ctx run diverges from plain run (%d vs %d)", e.Name(), got, want)
		}
	}
}

func TestMaterializeFromCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, e := range ctxEngines() {
		g, rs := bigChain(32)
		seed := g.Triples()[:1]
		if _, err := e.MaterializeFromCtx(ctx, g, rs, seed); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want Canceled", e.Name(), err)
		}
	}
}

// countdownCtx reports no error for its first `left` Err calls and
// context.Canceled from then on: a cancellation that lands at a known
// probe, whichever goroutine makes it.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestCancelLandsMidSweep pins the probe cadence of the fire loop for a
// delta far below 1,024 triples per thread — every incremental close the
// live writer runs: ctx must be probed at each chunk claim, so a
// cancellation that arrives during a sweep stops it before the delta is
// exhausted and surfaces as the context's error. One rule over 1,000
// triples is a single sweep in which every delta triple is exactly one
// firing, so the rule profile counts the triples fired.
func TestCancelLandsMidSweep(t *testing.T) {
	const n = 1000
	dict := rdf.NewDict()
	p := dict.InternIRI("http://t/p")
	rs := rules.MustParse("@prefix t: <http://t/> .\n[cp: (?x t:p ?y) -> (?x t:q ?y)]", dict)
	for _, threads := range []int{1, 2} {
		g := rdf.NewGraph()
		for i := 0; i < n; i++ {
			g.Add(rdf.Triple{S: dict.InternIRI(fmt.Sprintf("http://t/s%d", i)), P: p, O: dict.InternIRI(fmt.Sprintf("http://t/o%d", i))})
		}
		rc := &obs.RuleCollector{}
		// Three clean probes: the sweep-top check and two chunk claims.
		ctx := &countdownCtx{Context: obs.ContextWithRules(context.Background(), rc)}
		ctx.left.Store(3)
		_, err := Forward{Threads: threads}.MaterializeCtx(ctx, g, rs)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("threads=%d: err = %v, want Canceled", threads, err)
		}
		fired := rc.Snapshot()["cp"].Firings
		if fired == 0 || fired >= n {
			t.Errorf("threads=%d: %d of %d delta triples fired; the sweep must start and stop before its delta is exhausted", threads, fired, n)
		}
	}
}
