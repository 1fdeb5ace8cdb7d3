package rdf_test

import (
	"testing"

	"powl/internal/datagen"
	"powl/internal/owlhorst"
	"powl/internal/rdf"
	"powl/internal/reason"
)

// BenchmarkIndexBuild is the bulk build of the join indexes a forward
// closure reads (bySP, byPO and byP for LUBM's rules), over the LUBM-20
// closure: what the fire loop pays once for a graph that was only loaded.
// Each op builds them into a fresh unindexed copy; the copy is not timed.
func BenchmarkIndexBuild(b *testing.B) {
	ds := datagen.LUBM(datagen.LUBMConfig{Universities: 20, Seed: 1})
	comp := owlhorst.Compile(ds.Dict, ds.Graph)
	closed := comp.Start(ds.Graph)
	reason.Forward{}.Materialize(closed, comp.InstanceRules)
	plain := rdf.NewGraph()
	plain.AddAll(closed.TriplesSince(0))
	set := reason.JoinIndexes(comp.InstanceRules)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		b.StopTimer()
		g := plain.Clone()
		b.StartTimer()
		g.BuildIndexes(set)
	}
	b.ReportMetric(float64(plain.Len()), "triples/op")
}
