package partition

import (
	"hash/fnv"
	"testing"

	"powl/internal/datagen"
	"powl/internal/gpart"
	"powl/internal/owlhorst"
	"powl/internal/rdf"
)

// datasetInput is the Input core.Materialize hands a policy for ds.
func datasetInput(ds *datagen.Dataset) *Input {
	compiled := owlhorst.Compile(ds.Dict, ds.Graph)
	return &Input{
		Dict:     ds.Dict,
		Instance: owlhorst.SplitInstance(ds.Dict, ds.Graph),
		Skip:     owlhorst.SchemaElements(ds.Dict, compiled.Schema),
	}
}

// productGraphPolicy is the graph policy as core.Materialize configures it.
func productGraphPolicy(seed int64) GraphPolicy {
	return GraphPolicy{Opts: gpart.Options{Seed: seed, Imbalance: 0.02, RefinePasses: 12}}
}

// edgeCut counts the instance triples whose endpoints have different owners:
// the weight of the cut in the policy's resource graph (one unit per triple).
func edgeCut(in *Input, res *Result) int {
	cut := 0
	for _, tr := range in.Instance {
		p, sok := res.Owner[tr.S]
		q, ook := res.Owner[tr.O]
		if sok && ook && p != q {
			cut++
		}
	}
	return cut
}

// parentCut is the edgeCut of the map-based partitioner this package had before
// the flat-array rewrite, for productGraphPolicy(1) on the Quick-scale
// datasets. That partitioner broke refinement ties in Go map order for
// k ≥ 3, so its k=4 and k=8 figures are the median of 21 runs; k=2 was
// stable.
var parentCut = map[string]map[int]int{
	"lubm": {2: 46, 4: 236, 8: 419},
	"uobm": {2: 585, 4: 913, 8: 1166},
}

// TestGraphPolicyQualityFloor pins what the partitioner is for: on LUBM and
// UOBM at Quick scale the heaviest part stays within ε of the mean (plus
// one vertex of slack, the granularity limit) and the cut stays within 5 %
// of the parent's.
func TestGraphPolicyQualityFloor(t *testing.T) {
	sets := map[string]*datagen.Dataset{
		"lubm": datagen.LUBM(datagen.LUBMConfig{Universities: 2, Seed: 7}),
		"uobm": datagen.UOBM(datagen.UOBMConfig{Universities: 2, Seed: 7}),
	}
	for name, ds := range sets {
		in := datasetInput(ds)
		// The policy's structural vertex weight, recomputed independently.
		weight := map[rdf.ID]int64{}
		for _, id := range in.Nodes() {
			weight[id] = 2
		}
		for _, tr := range in.Instance {
			for _, id := range [2]rdf.ID{tr.S, tr.O} {
				if _, ok := weight[id]; ok {
					weight[id]++
				}
			}
		}
		var total, heaviest int64
		for _, w := range weight {
			total += w
			if w > heaviest {
				heaviest = w
			}
		}
		for _, k := range []int{2, 4, 8} {
			pol := productGraphPolicy(1)
			res, err := Partition(in, k, pol)
			if err != nil {
				t.Fatal(err)
			}
			loads := make([]int64, k)
			for id, p := range res.Owner {
				loads[p] += weight[id]
			}
			var maxLoad int64
			for _, l := range loads {
				if l > maxLoad {
					maxLoad = l
				}
			}
			mean := float64(total) / float64(k)
			if limit := mean*(1+pol.Opts.Imbalance) + float64(heaviest); float64(maxLoad) > limit {
				t.Errorf("%s k=%d: heaviest part %d above (1+ε)·mean + heaviest vertex = %.0f", name, k, maxLoad, limit)
			}
			cut := edgeCut(in, res)
			t.Logf("%s k=%d: cut %d (parent %d), max load %d of mean %.0f", name, k, cut, parentCut[name][k], maxLoad, mean)
			if limit := float64(parentCut[name][k]) * 1.05; float64(cut) > limit {
				t.Errorf("%s k=%d: cut %d above 1.05 × the parent's %d", name, k, cut, parentCut[name][k])
			}
		}
	}
}

// TestPartitionDeterministic: the whole partitioning — owner table and every
// part, element by element — is a function of (input, k, seed). The UOBM
// resource graph has unit edge weights throughout, so refinement meets
// equal-gain ties constantly; at k ≥ 3 a tie broken in map order shows up
// within a few repeats.
func TestPartitionDeterministic(t *testing.T) {
	in := datasetInput(datagen.UOBM(datagen.UOBMConfig{Universities: 20, Seed: 7}))
	if n := len(in.Nodes()); n < 5000 {
		t.Fatalf("only %d nodes; the test needs a graph large enough to hit ties", n)
	}
	for _, k := range []int{2, 3, 4, 8} {
		first, err := Partition(in, k, productGraphPolicy(1))
		if err != nil {
			t.Fatal(err)
		}
		for rep := 1; rep < 20; rep++ {
			res, err := Partition(in, k, productGraphPolicy(1))
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Owner) != len(first.Owner) {
				t.Fatalf("k=%d repeat %d: %d owners, first run had %d", k, rep, len(res.Owner), len(first.Owner))
			}
			for id, p := range first.Owner {
				if q, ok := res.Owner[id]; !ok || q != p {
					t.Fatalf("k=%d repeat %d: node %d owned by %d, first run said %d", k, rep, id, q, p)
				}
			}
			for i := range first.Parts {
				if len(res.Parts[i]) != len(first.Parts[i]) {
					t.Fatalf("k=%d repeat %d: part %d has %d triples, first run had %d", k, rep, i, len(res.Parts[i]), len(first.Parts[i]))
				}
				for j, tr := range first.Parts[i] {
					if res.Parts[i][j] != tr {
						t.Fatalf("k=%d repeat %d: part %d differs at triple %d", k, rep, i, j)
					}
				}
			}
		}
	}
}

// TestGraphPolicyFewerNodesThanParts: the graph policy partitions into at
// most as many parts as there are nodes; Partition still returns k parts,
// the surplus ones empty.
func TestGraphPolicyFewerNodesThanParts(t *testing.T) {
	dict := rdf.NewDict()
	p := dict.InternIRI("http://t/p")
	a, b, c := dict.InternIRI("http://t/a"), dict.InternIRI("http://t/b"), dict.InternIRI("http://t/c")
	in := &Input{Dict: dict, Instance: []rdf.Triple{{S: a, P: p, O: b}, {S: b, P: p, O: c}}}
	res, err := Partition(in, 5, GraphPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Parts) != 5 || len(res.Owner) != 3 {
		t.Fatalf("%d parts, %d owners; want 5 and 3", len(res.Parts), len(res.Owner))
	}
	empty := 0
	for _, part := range res.Parts {
		if len(part) == 0 {
			empty++
		}
	}
	if empty != 2 {
		t.Errorf("%d empty parts, want 2 (three nodes over five parts)", empty)
	}
	if m := ComputeMetrics(in, res); m.NodesPerPart[3]+m.NodesPerPart[4] != 0 {
		t.Errorf("NodesPerPart = %v: parts beyond the node count hold nodes", m.NodesPerPart)
	}
}

// TestInputWithoutDict: only the hash and domain policies read term text;
// the graph policy, Nodes and ComputeMetrics size their tables from the IDs
// in Instance and never touch Dict.
func TestInputWithoutDict(t *testing.T) {
	in := &Input{
		Instance: []rdf.Triple{{S: 7, P: 1, O: 9}, {S: 9, P: 1, O: 40}, {S: 40, P: 2, O: 3}},
		Skip:     map[rdf.ID]struct{}{3: {}, 1000: {}},
	}
	if got := in.Nodes(); len(got) != 3 || got[0] != 7 || got[1] != 9 || got[2] != 40 {
		t.Fatalf("Nodes = %v, want [7 9 40]", got)
	}
	res, err := Partition(in, 2, GraphPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if m := ComputeMetrics(in, res); m.NodesPerPart[0]+m.NodesPerPart[1] < 3 {
		t.Errorf("NodesPerPart = %v, want at least the 3 nodes", m.NodesPerPart)
	}
}

// TestHashTermIsFNV1a: hashTerm is 32-bit FNV-1a over kind byte and text —
// the same owners the streaming assigner and earlier runs computed — and
// does not allocate.
func TestHashTermIsFNV1a(t *testing.T) {
	terms := []rdf.Term{
		{Kind: rdf.IRI, Value: "http://benchmark.powl/uobm#univ3/dept2/student17"},
		{Kind: rdf.Literal, Value: "ünïcode \x00 bytes"},
		{Kind: rdf.Blank, Value: ""},
	}
	for _, term := range terms {
		h := fnv.New32a()
		h.Write([]byte{byte(term.Kind)})
		h.Write([]byte(term.Value))
		if want := int(h.Sum32() & 0x7fffffff); hashTerm(term) != want {
			t.Errorf("hashTerm(%q) = %d, want %d", term.Value, hashTerm(term), want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { hashTerm(terms[0]) }); n != 0 {
		t.Errorf("hashTerm allocates %.0f times", n)
	}
}

// BenchmarkPartitionGraph is the partition stage of core.Materialize at
// bench scale (UOBM-100, k=2, the batch.uobm.k2-graph workload): ownership
// through the graph policy, triple assignment, and the metrics pass. CI's
// bench-smoke fails it above 1,000 allocs/op.
func BenchmarkPartitionGraph(b *testing.B) {
	in := datasetInput(datagen.UOBM(datagen.UOBMConfig{Universities: 100, Seed: 1}))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Partition(in, 2, productGraphPolicy(1))
		if err != nil {
			b.Fatal(err)
		}
		m := ComputeMetrics(in, res)
		if i == 0 {
			b.ReportMetric(float64(edgeCut(in, res)), "edge-cut")
			b.ReportMetric(m.IR, "ir")
		}
	}
}
