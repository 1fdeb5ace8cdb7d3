package rdf_test

import (
	"testing"

	"powl/internal/datagen"
	"powl/internal/owlhorst"
	"powl/internal/rdf"
	"powl/internal/reason"
)

// indexBuild times building sc into a fresh unindexed copy of the LUBM-20
// closure per op; the copy is not timed.
func indexBuild(b *testing.B, sc func(*owlhorst.Compiled) rdf.Scope) {
	ds := datagen.LUBM(datagen.LUBMConfig{Universities: 20, Seed: 1})
	comp := owlhorst.Compile(ds.Dict, ds.Graph)
	closed := comp.Start(ds.Graph)
	reason.Forward{}.Materialize(closed, comp.InstanceRules)
	plain := rdf.NewGraph()
	plain.AddAll(closed.TriplesSince(0))
	scope := sc(comp)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		b.StopTimer()
		g := plain.Clone()
		b.StartTimer()
		g.BuildScope(scope)
	}
	b.ReportMetric(float64(plain.Len()), "triples/op")
}

// BenchmarkIndexBuild is the bulk build of bySP, byPO and byP for every
// predicate over the LUBM-20 closure: what a graph pays that completes them
// for readers of any pattern.
func BenchmarkIndexBuild(b *testing.B) {
	indexBuild(b, func(*owlhorst.Compiled) rdf.Scope {
		return rdf.Scope{Full: rdf.IndexSP | rdf.IndexPO | rdf.IndexP}
	})
}

// BenchmarkIndexBuildScoped is the same build scoped to the predicates a
// forward closure under LUBM's rules joins through (reason.JoinScope): what
// the fire loop pays once for a graph that was only loaded.
func BenchmarkIndexBuildScoped(b *testing.B) {
	indexBuild(b, func(c *owlhorst.Compiled) rdf.Scope { return reason.JoinScope(c.InstanceRules) })
}
