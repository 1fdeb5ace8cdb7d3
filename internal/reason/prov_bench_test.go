package reason

import "testing"

// TestJoinPathZeroAllocsProvCapture pins the provenance-recording join path:
// with sc.rec set, fireOn and joinRest additionally write the firing rule
// and premise triples into the scratch, and that capture must be as
// allocation-free as the disabled path — the premises live in a fixed
// [3]rdf.Triple, not a growing slice.
func TestJoinPathZeroAllocsProvCapture(t *testing.T) {
	g, rs, deltas := allocFixture()
	Forward{}.Materialize(g, rs)
	if avg := joinPathAllocs(t, g, rs, deltas, true); avg != 0 {
		t.Errorf("recording join path allocates %.1f times per run, want 0", avg)
	}
}

// The Materialize pair below is what CI diffs for BENCH_7: the full
// semi-naive materialization with provenance off versus on, same fixture.
// The on-path cost is the side-column append, the per-shard sidecar, and
// offset resolution at commit.

func BenchmarkMaterializeProvOff(b *testing.B) {
	g0, rs, _ := allocFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := g0.Clone()
		Forward{}.Materialize(g, rs)
	}
}

func BenchmarkMaterializeProvOn(b *testing.B) {
	g0, rs, _ := allocFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := g0.Clone()
		g.EnableProv()
		Forward{}.Materialize(g, rs)
	}
}
