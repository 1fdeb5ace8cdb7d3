package rdf

import (
	"fmt"
	"math/rand"
	"testing"
)

func benchGraph(n int) (*Graph, []Triple) {
	rng := rand.New(rand.NewSource(1))
	g := NewGraphCap(n)
	ts := make([]Triple, 0, n)
	for len(ts) < n {
		t := Triple{
			S: ID(1 + rng.Intn(n/4+1)),
			P: ID(1 + rng.Intn(16)),
			O: ID(1 + rng.Intn(n/4+1)),
		}
		if g.Add(t) {
			ts = append(ts, t)
		}
	}
	return g, ts
}

func BenchmarkGraphAdd(b *testing.B) {
	_, ts := benchGraph(50000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := NewGraphCap(len(ts))
		for _, t := range ts {
			g.Add(t)
		}
	}
	b.ReportMetric(float64(len(ts)), "triples/op")
}

// BenchmarkGraphAddAll is BenchmarkGraphAdd's triples through one range
// insert: the bulk load path ReadGraph and cluster workers take.
func BenchmarkGraphAddAll(b *testing.B) {
	_, ts := benchGraph(50000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewGraph().AddAll(ts)
	}
	b.ReportMetric(float64(len(ts)), "triples/op")
}

func BenchmarkGraphMatchSP(b *testing.B) {
	g, ts := benchGraph(50000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := ts[i%len(ts)]
		n := 0
		g.ForEachMatch(t.S, t.P, Wildcard, func(Triple) bool {
			n++
			return true
		})
		if n == 0 {
			b.Fatal("no matches")
		}
	}
}

func BenchmarkGraphMatchPO(b *testing.B) {
	g, ts := benchGraph(50000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := ts[i%len(ts)]
		n := 0
		g.ForEachMatch(Wildcard, t.P, t.O, func(Triple) bool {
			n++
			return true
		})
		if n == 0 {
			b.Fatal("no matches")
		}
	}
}

var sinkTriples []Triple

func BenchmarkSortedTriples(b *testing.B) {
	g, _ := benchGraph(50000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkTriples = g.SortedTriples()
	}
	b.ReportMetric(float64(g.Len()), "triples/op")
}

func BenchmarkDictIntern(b *testing.B) {
	d := NewDict()
	terms := make([]Term, 4096)
	for i := range terms {
		terms[i] = Term{Kind: IRI, Value: fmt.Sprintf("http://bench/x%d", i)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Intern(terms[i%len(terms)])
	}
}

func BenchmarkGraphClone(b *testing.B) {
	g, _ := benchGraph(50000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := g.Clone()
		if c.Len() != g.Len() {
			b.Fatal("clone lost triples")
		}
	}
	b.ReportMetric(float64(g.Len()), "triples/op")
}

func BenchmarkGraphCountMatch(b *testing.B) {
	g, ts := benchGraph(50000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := ts[i%len(ts)]
		// The three shapes the join planner ranks on every step.
		if g.CountMatch(t.S, t.P, Wildcard) == 0 ||
			g.CountMatch(Wildcard, t.P, t.O) == 0 ||
			g.CountMatch(Wildcard, t.P, Wildcard) == 0 {
			b.Fatal("stored triple has empty extent")
		}
	}
}

func BenchmarkGraphUnion(b *testing.B) {
	g1, _ := benchGraph(20000)
	g2, _ := benchGraph(20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := NewGraphCap(g1.Len() + g2.Len())
		u.Union(g1)
		u.Union(g2)
	}
}
