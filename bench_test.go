// Package powl's top-level benchmarks regenerate each table and figure of
// the paper (via internal/experiments, at Quick scale so a -bench=. sweep
// stays tractable) and add ablation benchmarks for the design choices
// DESIGN.md calls out: tabling policy, delta strategy, engine, transport and
// the graph partitioner.
//
// Speedup-style results are attached as custom benchmark metrics, so
// `go test -bench=.` prints the paper-shaped numbers alongside ns/op.
package powl_test

import (
	"context"
	"testing"

	"powl/internal/core"
	"powl/internal/datagen"
	"powl/internal/experiments"
	"powl/internal/gpart"
	"powl/internal/owlhorst"
	"powl/internal/rdf"
	"powl/internal/reason"
	"powl/internal/transport"
)

// --- Figures and table ------------------------------------------------------

func BenchmarkFig1_Speedups(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig1(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Dataset == "lubm" && r.K == 4 {
				b.ReportMetric(r.Speedup, "lubm-speedup@4")
			}
			if r.Dataset == "uobm" && r.K == 4 {
				b.ReportMetric(r.Speedup, "uobm-speedup@4")
			}
		}
	}
}

func BenchmarkFig2_Overhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig2(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		total := last.Reason + last.IO + last.Sync + last.Aggregate
		if total > 0 {
			b.ReportMetric(100*float64(last.IO+last.Sync)/float64(total), "io+sync%")
		}
	}
}

func BenchmarkFig3_TheoreticalMax(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig3(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		b.ReportMetric(last.Measured, "measured")
		b.ReportMetric(last.TheoreticalMax, "theoretical-max")
	}
}

func BenchmarkFig4_SerialScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig4(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.RSquared, "r-squared")
	}
}

func BenchmarkFig5_Policies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig5(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.K != 4 {
				continue
			}
			switch r.Policy {
			case core.GraphPolicy:
				b.ReportMetric(r.Speedup, "graph@4")
			case core.HashPolicy:
				b.ReportMetric(r.Speedup, "hash@4")
			}
		}
	}
}

func BenchmarkFig6_RulePartition(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig6(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Dataset == "lubm" && r.K == 2 {
				b.ReportMetric(r.Speedup, "lubm-speedup@2")
			}
		}
	}
}

func BenchmarkTable1_Metrics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.K != 4 {
				continue
			}
			switch r.Policy {
			case "graph":
				b.ReportMetric(r.IR, "graph-IR@4")
			case "hash":
				b.ReportMetric(r.IR, "hash-IR@4")
			}
		}
	}
}

// --- Engine benchmarks -------------------------------------------------------

func benchLUBM() *datagen.Dataset {
	return datagen.LUBM(datagen.LUBMConfig{Universities: 2, Seed: 7})
}

func BenchmarkSerialForward_LUBM2(b *testing.B) {
	ds := benchLUBM()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Materialize(ds, core.Config{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Graph.Len()), "closure-triples")
	}
}

func BenchmarkSerialHybrid_LUBM2(b *testing.B) {
	ds := benchLUBM()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Materialize(ds, core.Config{Engine: core.HybridEngine}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_Engine compares the three engines' full
// materialization cost on the same workload.
func BenchmarkAblation_Engine(b *testing.B) {
	ds := benchLUBM()
	for _, kind := range []core.EngineKind{core.ForwardEngine, core.ReteEngine, core.HybridEngine} {
		b.Run(string(kind), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Materialize(ds, core.Config{Engine: kind}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_Tabling compares the paper-faithful per-query table
// reset against shared tabling: the gap IS the worst-case overhead the
// paper's super-linear speedups eliminate by partitioning.
func BenchmarkAblation_Tabling(b *testing.B) {
	ds := benchLUBM()
	for _, kind := range []core.EngineKind{core.HybridEngine, core.HybridSharedEngine} {
		b.Run(string(kind), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Materialize(ds, core.Config{Engine: kind}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_Delta measures the incremental close every engine runs
// between rounds on a worker-shaped update: a materialized graph absorbing a
// batch of boundary tuples.
func BenchmarkAblation_Delta(b *testing.B) {
	ds := benchLUBM()
	compiled := owlhorst.Compile(ds.Dict, ds.Graph)
	base := rdf.NewGraph()
	base.AddAll(owlhorst.SplitInstance(ds.Dict, ds.Graph))
	base.Union(compiled.Schema)
	reason.Forward{}.Materialize(base, compiled.InstanceRules)

	// Seeds: synthetic memberships tying existing people to existing orgs.
	memberOf := ds.Dict.InternIRI("http://benchmark.powl/lubm#memberOf")
	var people, orgs []rdf.ID
	typ := ds.Dict.InternIRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")
	ug := ds.Dict.InternIRI("http://benchmark.powl/lubm#UndergraduateStudent")
	dept := ds.Dict.InternIRI("http://benchmark.powl/lubm#Department")
	base.ForEachMatch(rdf.Wildcard, typ, ug, func(t rdf.Triple) bool {
		people = append(people, t.S)
		return len(people) < 32
	})
	base.ForEachMatch(rdf.Wildcard, typ, dept, func(t rdf.Triple) bool {
		orgs = append(orgs, t.S)
		return len(orgs) < 32
	})
	var seeds []rdf.Triple
	for i, p := range people {
		seeds = append(seeds, rdf.Triple{S: p, P: memberOf, O: orgs[i%len(orgs)]})
	}

	b.Run("forward-delta", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			g := base.Clone()
			var fresh []rdf.Triple
			for _, s := range seeds {
				if g.Add(s) {
					fresh = append(fresh, s)
				}
			}
			b.StartTimer()
			reason.Forward{}.MaterializeFrom(g, compiled.InstanceRules, fresh)
		}
	})
}

// BenchmarkAblation_Transport measures the per-exchange cost of the three
// transports shipping a fixed batch.
func BenchmarkAblation_Transport(b *testing.B) {
	ds := benchLUBM()
	batch := ds.Graph.Triples()[:2000]
	run := func(b *testing.B, tr transport.Transport) {
		for i := 0; i < b.N; i++ {
			if err := tr.Send(context.Background(), i, 0, 1, batch); err != nil {
				b.Fatal(err)
			}
			got, err := tr.Recv(context.Background(), i, 1)
			if err != nil {
				b.Fatal(err)
			}
			if len(got) != len(batch) {
				b.Fatalf("lost triples: %d of %d", len(got), len(batch))
			}
		}
	}
	b.Run("mem", func(b *testing.B) {
		tr := transport.NewMem()
		defer tr.Close()
		run(b, tr)
	})
	b.Run("file", func(b *testing.B) {
		tr, err := transport.NewFile(b.TempDir(), ds.Dict)
		if err != nil {
			b.Fatal(err)
		}
		defer tr.Close()
		run(b, tr)
	})
	b.Run("tcp", func(b *testing.B) {
		tr, err := transport.NewTCP(2, ds.Dict)
		if err != nil {
			b.Fatal(err)
		}
		defer tr.Close()
		run(b, tr)
	})
}

// BenchmarkGpart measures the multilevel partitioner on the LUBM resource
// graph (the "Part. Time" column of Table I).
func BenchmarkGpart(b *testing.B) {
	ds := datagen.LUBM(datagen.LUBMConfig{Universities: 4, Seed: 7})
	compiled := owlhorst.Compile(ds.Dict, ds.Graph)
	instance := owlhorst.SplitInstance(ds.Dict, ds.Graph)
	skip := owlhorst.SchemaElements(ds.Dict, compiled.Schema)
	nodes := map[rdf.ID]int{}
	var ids []rdf.ID
	for _, t := range instance {
		for _, x := range [2]rdf.ID{t.S, t.O} {
			if _, isSchema := skip[x]; isSchema {
				continue
			}
			if _, ok := nodes[x]; !ok {
				nodes[x] = len(ids)
				ids = append(ids, x)
			}
		}
	}
	builder := gpart.NewBuilder(len(ids))
	for _, t := range instance {
		si, sok := nodes[t.S]
		oi, ook := nodes[t.O]
		if sok && ook {
			builder.AddEdge(si, oi, 1)
		}
	}
	g := builder.Build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		part, err := gpart.Partition(g, 8, gpart.Options{Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(gpart.EdgeCut(g, part)), "edge-cut")
	}
}

// BenchmarkRoundTripNTriples measures the serialization path the file and
// TCP transports pay per tuple.
func BenchmarkRoundTripNTriples(b *testing.B) {
	ds := benchLUBM()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serialized := 0
		for _, t := range ds.Graph.Triples()[:1000] {
			serialized += len(ds.Dict.FormatTriple(t))
		}
		if serialized == 0 {
			b.Fatal("nothing serialized")
		}
	}
}
